"""Minimal dense-tensor computation graph with reverse-mode differentiation.

All buffers are float64. A graph is built once (node creation order is the
topological order), then executed repeatedly with named feeds. Forward
evaluation touches only the ancestors of the requested outputs, computes each
node exactly once, and raises as soon as any op produces a non-finite value.
Parameter values are checked where they enter rather than on every forward
pass: every value a caller hands to ``Parameter`` (which keeps that float64
array, uncopied) and every state ``Graph.load_state`` writes. A parameter
written by hand is caught by the first op that reads it. The one way in
without a check is ``Parameter.empty``, whose entries are unset: its maker
writes and checks every entry before the parameter leaves its hands (as
``Model.load`` does), and drops it when that fails. Every finiteness check
(op outputs, parameters, loaded state, Adam's gradients) is ``all_finite``,
the entrywise test.

``indexed_dense`` is the first dense layer of a model whose input row joins
several blocks (a compound vector and a protein descriptor): each block is a
table of distinct rows plus an integer index per output row, and the op
computes ``sum_k (T_k @ W[rows_k])[index_k]``, so a row shared by many pairs
is projected once. Its backward sums the upstream gradient per table row
(``per_row``); a block's weight gradient rows are ``T_k.T @ per_row``. It
forms them into one array, except while the weight carries a row selection
(a fit): then the gradient is a ``CompactGrad`` of those factors, which
``Adam.step`` forms block by block. The op is ``project(table, lo)`` per
block followed by a gather-add.

There are two passes: ``Graph.forward`` trains and ``Graph.infer`` scores.
Each keeps one plan per (requested outputs, given nodes, pass): the needed
nodes in order, with each node's consumer count in the call and a flag that
says whether its value is checked. ``backward`` keeps one plan per (loss,
named inputs): which nodes want a gradient, in order. Registering a node
drops every cached plan.

A node's finiteness check is implied, and skipped, in two cases only: a
ReLU, or an identity dropout (rate 0, or in ``infer``), whose input was
checked or implied finite earlier in the same pass. Neither op can turn
finite input into a non-finite value. A ``Parameter`` is not checked in a
pass, so a ReLU that reads one directly is still checked.

``Graph.infer(feeds, outputs, given={node: value})`` is the inference pass:
no dropout, batch normalization on its running statistics, and no backward
after it. ``given`` takes the value of any node from the caller instead of
computing it: the node's value goes through the same finiteness check as a
computed one, and the nodes that only it needs do not run. Prediction
projects the distinct rows of a whole call once through ``project`` and
hands each chunk the first layer's value as a ``GatherAdd``: the projected
tables and the chunk's row indices, not their sum. A blocked chain (below)
gathers it block by block; any other reader gets it formed once.

``add_bias``, batch normalization and ReLU are row-wise: row ``i`` of the
result reads row ``i`` of the input and one entry per column of some
vectors. Inside ``infer`` such an op writes its result into its input's
buffer when an op of the same pass produced that buffer, it has exactly
one consumer and it is not a requested output; otherwise it writes an
array of its own. A feed, a ``Parameter``, a given value and an identity
dropout's alias of its input are never written.

An inference plan runs in segments: a node (a product, a given value)
followed by the chain of row-wise ops that read it in turn, each with
only parameters besides. A requested output ends its segment. When the
head's value has at least two blocks of rows, a block being
``_INFER_BLOCK`` entries (``_INFER_BLOCK // width`` rows, 64 at width
256), the chain runs block by block: each block is gathered (from a given
``GatherAdd``, into the first op's buffer) or sliced from the head, then
goes through every op while it stays in L2. Each op's vectors (the bias;
the running mean, ``1/sqrt(running_var + eps)``, gamma and beta) are tiled
once per pass to a block's shape, so each elementwise step is one ufunc
over contiguous operands. A segment under two blocks runs node by node on
whole arrays and plain vectors, and builds no tile. Each op's inference
arithmetic is one method (``apply``) that both ways call, so every element
goes through the same IEEE operations on the same values in the same
order, and no byte changes.

A block runs one finiteness check per chain, not one per node. A check is
dropped when every op after it, up to a check that is kept, passes
non-finite entries on (``_RowWise.passes_non_finite``): ``add_bias`` and
batch normalization add, subtract and multiply, and in IEEE arithmetic a
NaN or an infinity stays non-finite at its position whatever the other
operand holds (inf*0 and inf-inf give NaN), a NaN or infinity in a
parameter's vector included. ReLU maps -inf to 0, so no check before it
is dropped on its account. In a hidden layer the batch-norm output (or
``add_bias`` without batch norm) is checked and the head and ``add_bias``
are not. When a block's check fails, or an op's vectors do not fit, the
blocked run stops and ``infer`` reruns the whole plan node by node on
whole arrays, which raises the error a node-by-node run raises: the failed
node that comes first in the plan, or the ``ShapeError`` after the checks
before it. The blocked run silences floating-point warnings, so a failing
call warns as the rerun does.

An inference pass keeps only what it returns. Once ``infer`` has collected
the requested outputs, or has raised, every node of its plan that is not a
``Parameter`` holds ``value = None``: feeds, given nodes, intermediates and
the outputs themselves. A caller's feed or given array is only
un-referenced, never written. Op state has one rule: a training ``forward``
keeps what its backward reads (the ReLU mask, batch normalization's
centered and normalized input, the graph convolution's neighbor sums and
mask, the graph pooling winners, the loss's residual), and no backward
derives such state from its input; ``infer`` keeps nothing.

Model state is the parameters and the batch-norm running statistics, and
all of it exists from construction: a batch norm allocates its running
mean (zeros) and variance (ones), sized from its ``gamma``, when it is
built. No pass creates state; a training ``forward`` moves the running
statistics and ``infer`` only reads them. ``Graph.live_state`` lists every
entry, and ``Graph.load_state`` writes each one in place after checking
its name and shape.

Backward fills ``grad`` only on nodes that lie between the loss and a
``Parameter`` (or an input named in ``backward(loss, inputs=...)``, which is
how the gradient checks reach placeholders). Each op computes a contribution
only for an input that wants one, so the gradient of the fingerprint and
descriptor tables and of the first graph convolution's atom features is never
formed in training. After a backward pass every parameter the loss reaches
holds a gradient (all zeros when nothing flowed into it; in the compact
layout of its row selection, if it has one, and then a ``CompactGrad`` when
``indexed_dense`` gave it) and every node that received none holds
``None``. A node's first contribution is adopted as its gradient without a
copy, so gradient arrays may alias each other and are read-only; a second
contribution is added to the first one's array, formed if it is a
``CompactGrad``.

``Adam.step`` updates parameters and moments in place, with the arithmetic
of the textbook rule in its textbook order, so it is bitwise equal to the
plain expression. Building an ``Adam`` packs every parameter without a row
selection into one flat float64 buffer, in parameter order, and rebinds
each such ``Parameter.array`` (and ``value``) to a view of its span; the
moments are views of flat buffers with the same layout. A step gathers
those gradients into one flat array and runs the update once over the flat
buffers, in fixed chunks, instead of once per parameter: the graph-conv
model has dozens of small per-degree parameters, and the per-call overhead
of ~14 ufuncs each outweighed their arithmetic. This is exact: every entry
goes through the same IEEE-rounded elementwise operations with the same
scalars in the same order, and packing only moves bytes.

From then on the optimizer's buffer owns those parameter arrays. Write a
parameter in place (``Graph.load_state`` does, and ``state_dict`` copies);
rebinding ``Parameter.array`` would detach it from the optimizer, whose
steps would then move the old buffer. A second ``Adam`` over the same
parameters repacks them from their current values into its own buffer, so
only the newest optimizer moves them.

A ``Parameter`` may carry a ``RowSelection``: the rows a fit can move,
chosen per block of rows. Training sets one on the first-layer weight for
the duration of a fit, with a row active when its input column is nonzero
for at least one training pair (a learned compound embedding is all
active). A block with a quarter or more of its rows inactive is compacted
to its active rows, unless that leaves 1 to 3 of them; any other block
stays whole. While the selection is
set, ``indexed_dense``'s backward leaves the weight gradient as a
``CompactGrad``: per block, the kept table columns (``T[:, cols]`` for a
compacted block, ``T`` for a whole one) and the upstream gradient summed
per table row, whose product is the gradient of the selected rows in the
compact layout. An ``Adam`` built then keeps that weight's moments in the
same layout, updates only those rows, and forms each row block of the
gradient just before that block's update, so a fit never holds the
weight's gradient: its floor is the weight and its two compact moments.
The forward still reads the full weight, so validation and prediction see
every row.

This is exact. There is no weight decay, so an inactive row's gradient is
±0 at every step of the fit: its moments would stay +0 and its update
``lr*0/(sqrt(0)+eps)`` is +0, which leaves the row as it was. Skipping it
changes no byte. Each selected row's gradient entry is the same dot product
over the batch's distinct table rows as on the full path (the tests check
the compact product, whole and per Adam block, bitwise against the full
one; ``CompactGrad.rows`` says how a block's product is cut so that it
is) and its update runs the same arithmetic, so the parameters are
byte-identical to a fit over every row. A column-compacted forward
``T[:, cols] @ W[cols]`` would not be: it sums over the columns in another
order.

Conventions fixed here and relied on by tests:

* the ReLU subgradient at 0 is 0;
* dropout is inverted (activations scaled by 1/(1-p) in ``forward``, identity
  in ``infer``) and draws its mask from the generator passed to ``forward``;
* batch normalization uses biased batch variance and updates running
  statistics with momentum 0.9 in every ``forward``; ``infer`` normalizes
  with the running statistics and leaves them as they are;
* the weighted squared-error loss divides by the total weight, so masked
  entries contribute exactly zero loss and zero gradient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "EngineError",
    "ShapeError",
    "NonFiniteError",
    "Node",
    "Placeholder",
    "ObjectInput",
    "Parameter",
    "Graph",
    "relu",
    "GatherAdd",
    "RowSelection",
    "CompactGrad",
    "Adam",
    "AdamState",
    "require_finite",
]


class EngineError(RuntimeError):
    pass


class ShapeError(EngineError):
    pass


class NonFiniteError(EngineError):
    pass


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite."""
    return bool(np.isfinite(a).all())


def require_finite(state: dict[str, np.ndarray]) -> None:
    """Raise :class:`NonFiniteError` naming the first entry of ``state``
    with a non-finite value."""
    for key, value in state.items():
        if not all_finite(value):
            raise NonFiniteError(f"state entry '{key}' has non-finite values")


class _Context:
    """One pass's feeds and kind. ``inference`` is set in ``Graph.infer``,
    after which no backward runs; ``reuse`` is set per node by the plan and
    tells an op that supports it to write into its first input's buffer."""

    __slots__ = ("feeds", "rng", "inference", "reuse")

    def __init__(self, feeds, rng, inference=False):
        self.feeds = feeds
        self.rng = rng
        self.inference = inference
        self.reuse = False


class Node:
    """One operation in the graph; holds its last output and gradient."""

    def __init__(self, op: str, inputs: tuple["Node", ...]):
        self.op = op
        self.inputs = inputs
        self.name = op  # made unique when added to a Graph
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | CompactGrad | None = None
        # set by Graph.backward; True until then so backprop can be driven by hand
        self.wants_grad = True

    def compute(self, ctx: _Context) -> np.ndarray:
        """The node's value from its inputs' values: an array of its own,
        never an input's buffer (identity dropout alone returns its input),
        because ``Graph.infer`` may write into it once it is dead."""
        raise NotImplementedError

    def backprop(self) -> None:
        """Add ``self.grad``'s contribution to each input that wants a gradient."""

    def _accumulate(self, node: "Node", contribution) -> None:
        # The first contribution is adopted as is; later ones are added out of
        # place because an adopted array may be another node's gradient. The
        # sum reads a CompactGrad through its formed array.
        if node.grad is None:
            node.grad = contribution
        else:
            node.grad = np.add(node.grad, contribution)

    def shape_error(self, detail: str) -> ShapeError:
        return ShapeError(f"{self.name} ({self.op}): {detail}")


class Placeholder(Node):
    def __init__(self, name: str):
        super().__init__("input", ())
        self.name = name

    def compute(self, ctx):
        try:
            fed = ctx.feeds[self.name]
        except KeyError:
            raise EngineError(f"no value fed for input '{self.name}'") from None
        return np.asarray(fed, dtype=np.float64)


class ObjectInput(Node):
    """Non-numeric side input (e.g. a packed molecular-graph structure)."""

    def __init__(self, name: str):
        super().__init__("object", ())
        self.name = name

    def compute(self, ctx):
        try:
            return ctx.feeds[self.name]
        except KeyError:
            raise EngineError(f"no value fed for input '{self.name}'") from None


class Parameter(Node):
    """A trainable array. It keeps the array it is handed when that is a
    writeable float64 array (the caller hands it over), else a float64
    copy, and checks it for finiteness."""

    def __init__(self, name: str, value: np.ndarray):
        super().__init__("parameter", ())
        self.name = name
        self.array = np.require(value, np.float64, "W")
        if not all_finite(self.array):
            raise NonFiniteError(f"parameter '{name}' has non-finite values")
        # rows a fit can move (see RowSelection); None trains every row
        self.row_selection: RowSelection | None = None

    @classmethod
    def empty(cls, name: str, shape: tuple[int, ...]) -> "Parameter":
        """A parameter of ``shape`` whose entries are unset and unchecked:
        its maker writes and checks every one before anything else sees it
        (see the module docstring)."""
        param = cls(name, np.empty(0))
        param.array = np.empty(shape)
        return param

    def compute(self, ctx):
        return self.array


class _MatMul(Node):
    def __init__(self, a, b):
        super().__init__("matmul", (a, b))

    def compute(self, ctx):
        a, b = self.inputs[0].value, self.inputs[1].value
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise self.shape_error(f"cannot multiply {a.shape} by {b.shape}")
        return a @ b

    def backprop(self):
        a, b = self.inputs
        if a.wants_grad:
            self._accumulate(a, self.grad @ b.value.T)
        if b.wants_grad:
            self._accumulate(b, a.value.T @ self.grad)


def _check_indices(node: Node, tables, indices, names) -> None:
    """``node``'s ShapeError unless each index is a 1-d integer array
    inside its table's rows and all have one length; ``names`` says what
    each index is in the message."""
    counts = set()
    for table, index, name in zip(tables, indices, names):
        if (not isinstance(index, np.ndarray) or index.ndim != 1
                or not np.issubdtype(index.dtype, np.integer)):
            raise node.shape_error(f"{name} must be a 1-d integer array")
        if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
            raise node.shape_error(f"{name} leaves the range of its "
                                   f"{table.shape[0]}-row table")
        counts.add(index.size)
    if len(counts) != 1:
        raise node.shape_error(f"indices differ in length: {sorted(counts)}")


class GatherAdd(NamedTuple):
    """``indexed_dense``'s value before it is formed: row ``i`` is
    ``tables[0][indices[0][i]] + tables[1][indices[1][i]] + ...``, added in
    that order, each table holding projected rows.

    ``Graph.infer`` takes one as the given value of an ``indexed_dense``
    node. A blocked chain (see ``Graph._run_blocks``) gathers each row
    block straight into its first op's buffer; any other reader gets the
    array ``form`` makes. ``_IndexedDense.compute`` forms its value here
    too, so both ways add the same values in the same order.
    """

    tables: tuple
    indices: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indices[0]), self.tables[0].shape[1])

    @property
    def ndim(self) -> int:
        return 2

    def check(self, node: Node) -> None:
        """``node``'s ShapeError unless the tables are 2-d of one width and
        the indices fit them (``gather`` reads them unchecked)."""
        if any(t.ndim != 2 or t.shape[1] != self.tables[0].shape[1]
               for t in self.tables) or len(self.indices) != len(self.tables):
            raise node.shape_error(
                f"a given gather-add needs 2-d tables of one width, one "
                f"index each: got tables {[t.shape for t in self.tables]} "
                f"and {len(self.indices)} indices")
        _check_indices(node, self.tables, self.indices,
                       [f"given index {k}" for k in range(len(self.indices))])

    def gather(self, lo: int, hi: int, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
        """Rows ``lo:hi`` into ``out``, through ``scratch`` of ``out``'s
        shape for each table after the first."""
        np.take(self.tables[0], self.indices[0][lo:hi], axis=0, out=out,
                mode="clip")
        for table, index in zip(self.tables[1:], self.indices[1:]):
            out += np.take(table, index[lo:hi], axis=0, out=scratch,
                           mode="clip")
        return out

    def form(self) -> np.ndarray:
        """Every row, in an array of its own."""
        out = np.empty(self.shape)
        scratch = np.empty(self.shape) if len(self.tables) > 1 else None
        return self.gather(0, len(out), out, scratch)


class _IndexedDense(Node):
    """``sum_k (T_k @ W[rows_k])[index_k]``: a dense layer over joined tables.

    Block ``k`` pairs a table ``T_k`` of distinct rows with an index that
    maps each output row to one of them; the blocks' widths split ``W``'s
    rows in order. The result equals ``concat([T_k[index_k]]) @ W`` up to
    summation order, but each distinct row is projected once. The backward
    sums the upstream gradient per distinct table row (``per_row``); ``W``'s
    gradient rows of a block are then ``T_k.T @ per_row``. While ``W``
    carries a row selection, the backward forms no array for them: it
    leaves a ``CompactGrad`` of each block's kept columns and ``per_row``,
    in the selection's compact layout, which ``Adam.step`` forms block by
    block. Without a selection it forms the whole gradient array.

    The op is ``project`` per block followed by a gather-add.
    """

    def __init__(self, blocks, weight):
        tables = tuple(table for table, _ in blocks)
        indices = tuple(index for _, index in blocks)
        super().__init__("indexed_dense", (*tables, *indices, weight))
        self.n_blocks = len(tables)

    def _blocks(self):
        """(table node, index array, first W row, end W row) per block."""
        k = self.n_blocks
        lo = 0
        for table, index in zip(self.inputs[:k], self.inputs[k:2 * k]):
            hi = lo + table.value.shape[1]
            yield table, index.value, lo, hi
            lo = hi

    def project(self, table: np.ndarray, lo: int) -> np.ndarray:
        """``table @ W[lo:lo + width]``: rows of the block whose columns
        start at weight row ``lo``, through that block of the weight (a
        ``Parameter``'s current array, without a forward)."""
        w = self.inputs[-1]
        weight = w.array if isinstance(w, Parameter) else w.value
        return table @ weight[lo:lo + table.shape[1]]

    def _check_tables(self, tables, w) -> None:
        if w.ndim != 2 or any(t.ndim != 2 for t in tables):
            raise self.shape_error(
                f"expected 2-d tables and weight, got tables "
                f"{[t.shape for t in tables]} and weight {w.shape}")
        if sum(t.shape[1] for t in tables) != w.shape[0]:
            raise self.shape_error(
                f"table widths {[t.shape[1] for t in tables]} do not sum to "
                f"the weight's {w.shape[0]} rows")

    def compute(self, ctx):
        k = self.n_blocks
        tables = [node.value for node in self.inputs[:k]]
        self._check_tables(tables, self.inputs[-1].value)
        indices = [node.value for node in self.inputs[k:2 * k]]
        _check_indices(self, tables, indices,
                       [f"index '{node.name}'" for node in self.inputs[k:2 * k]])
        projected = [self.project(table.value, lo)
                     for table, _, lo, _ in self._blocks()]
        return GatherAdd(tuple(projected), tuple(indices)).form()

    def backprop(self):
        w_node = self.inputs[-1]
        selection = None
        if w_node.wants_grad:
            widths = tuple(node.value.shape[1]
                           for node in self.inputs[:self.n_blocks])
            selection = w_node.row_selection or RowSelection(
                [np.ones(width, dtype=bool) for width in widths])
            if selection.widths != widths:
                raise self.shape_error(
                    f"row selection of '{w_node.name}' covers blocks "
                    f"{list(selection.widths)}, the tables are "
                    f"{list(widths)} wide")
            factors = []
        for k, (table, index, lo, hi) in enumerate(self._blocks()):
            if selection is None and not table.wants_grad:
                continue
            # the rows of self.grad summed per distinct table row
            per_row = np.zeros((table.value.shape[0], self.grad.shape[1]))
            np.add.at(per_row, index, self.grad)
            if selection is not None:
                compact, columns, _ = selection.blocks[k]
                kept = table.value if columns is None else table.value[:, columns]
                factors.append((compact, kept, per_row))
            if table.wants_grad:
                self._accumulate(table, per_row @ w_node.value[lo:hi].T)
        if selection is not None:
            grad = CompactGrad((selection.n_rows, w_node.value.shape[1]),
                               factors)
            self._accumulate(w_node, grad if w_node.row_selection is not None
                             else np.asarray(grad))


class _RowWise(Node):
    """An op whose row ``i`` reads only row ``i`` of its first input, plus
    vectors of one entry per column (``operands``). Its inference
    arithmetic is ``apply``: ``Graph.infer`` calls it once on the whole
    input with the plain vectors, or once per row block with the vectors
    tiled to the block's shape (see ``Graph._run_blocks``).

    ``passes_non_finite`` says that a non-finite entry of ``x`` gives a
    non-finite entry at the same position of the result, whatever the
    vectors hold, so a later check of the chain sees it (see
    ``Graph._run_blocks``). IEEE add, subtract and multiply do that (inf*0
    and inf-inf give NaN); ReLU does not, as it maps -inf to 0."""

    passes_non_finite = False

    def operands(self, x: np.ndarray) -> tuple:
        """The vectors ``apply`` reads besides ``x``, checked against
        ``x``'s shape."""
        return ()

    def apply(self, x: np.ndarray, out: np.ndarray | None,
              operands: tuple) -> np.ndarray:
        """The inference value of the rows ``x`` into ``out`` (which may be
        ``x``, or ``None`` for a new array)."""
        raise NotImplementedError


class _AddBias(_RowWise):
    passes_non_finite = True

    def __init__(self, x, bias):
        super().__init__("add_bias", (x, bias))

    def operands(self, x):
        bias = self.inputs[1].value
        if bias.ndim != 1 or x.ndim != 2 or x.shape[1] != bias.shape[0]:
            raise self.shape_error(f"bias {bias.shape} does not fit {x.shape}")
        return (bias,)

    def apply(self, x, out, operands):
        return np.add(x, operands[0], out=out)

    def compute(self, ctx):
        x = self.inputs[0].value
        return self.apply(x, x if ctx.reuse else None, self.operands(x))

    def backprop(self):
        x, bias = self.inputs
        if x.wants_grad:
            self._accumulate(x, self.grad)
        if bias.wants_grad:
            self._accumulate(bias, self.grad.sum(axis=0))


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``where(x > 0, x, +0.0)`` for finite ``x``, without branching on the
    mask: ``maximum`` may keep a -0.0, which adding +0.0 turns into +0.0,
    and adding +0.0 leaves every other value as it is. On a 321 x 64 array
    with half its entries negative this took 22 us where ``where`` took
    115 us (2-core Xeon), the difference being mispredicted branches.
    ``out``, which may be ``x``, receives the result."""
    out = np.maximum(x, 0.0, out=out)
    out += 0.0
    return out


class _Relu(_RowWise):
    """Every forward keeps the mask of positive inputs for the backward."""

    def __init__(self, x):
        super().__init__("relu", (x,))
        self._mask = None

    def apply(self, x, out, operands):
        return relu(x, out=out)

    def compute(self, ctx):
        x = self.inputs[0].value
        self._mask = None if ctx.inference else x > 0.0
        return self.apply(x, x if ctx.reuse else None, ())

    def backprop(self):
        x = self.inputs[0]
        if x.wants_grad:
            self._accumulate(x, self.grad * self._mask)


class _Dropout(Node):
    def __init__(self, x, rate: float):
        super().__init__("dropout", (x,))
        if not 0.0 <= rate < 1.0:
            raise EngineError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def compute(self, ctx):
        x = self.inputs[0].value
        if ctx.inference or self.rate == 0.0:
            self._mask = None
            return x
        if ctx.rng is None:
            raise EngineError(f"{self.name}: training-mode dropout needs an rng")
        keep = ctx.rng.random(x.shape) >= self.rate
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backprop(self):
        if not self.inputs[0].wants_grad:
            return
        if self._mask is None:
            self._accumulate(self.inputs[0], self.grad)
        else:
            self._accumulate(self.inputs[0], self.grad * self._mask)


class _BatchNorm(_RowWise):
    """Per-feature normalization over the batch, with running statistics.

    The running mean (zeros) and variance (ones) are allocated here, one
    entry per ``gamma`` entry, so they exist before any pass. A training
    ``forward`` normalizes with the batch's statistics, moves the running
    ones, and keeps the centered and normalized input its backward reads.
    ``infer`` normalizes with the running statistics and keeps nothing:
    ``apply`` subtracts the running mean, multiplies by
    ``1/sqrt(running_var + eps)`` and by gamma, and adds beta, on the whole
    input with plain vectors or on a row block with tiled ones.

    Each ``forward`` moves the running statistics by ``momentum``; ``eps``
    is added to every variance before its square root. Both are constants.
    """

    momentum = 0.9
    eps = 1e-5
    passes_non_finite = True

    def __init__(self, x, gamma, beta):
        super().__init__("batchnorm", (x, gamma, beta))
        self.running_mean = np.zeros(gamma.array.shape)
        self.running_var = np.ones(gamma.array.shape)

    def _fit(self, x):
        """``gamma`` and ``beta``, checked against ``x``'s shape."""
        gamma, beta = self.inputs[1].value, self.inputs[2].value
        if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
            raise self.shape_error(
                f"x {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
        return gamma, beta

    def operands(self, x):
        gamma, beta = self._fit(x)
        return (self.running_mean, 1.0 / np.sqrt(self.running_var + self.eps),
                gamma, beta)

    def apply(self, x, out, operands):
        mean, inv_std, gamma, beta = operands
        out = np.subtract(x, mean, out=out)
        out *= inv_std
        out *= gamma
        out += beta
        return out

    def compute(self, ctx):
        x = self.inputs[0].value
        if ctx.inference:
            self._inv_std = self._centered = self._xhat = None
            return self.apply(x, x if ctx.reuse else None, self.operands(x))
        gamma, beta = self._fit(x)
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        self.running_mean = (self.momentum * self.running_mean
                             + (1.0 - self.momentum) * mean)
        self.running_var = (self.momentum * self.running_var
                            + (1.0 - self.momentum) * var)
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._centered = x - mean
        self._xhat = self._centered * self._inv_std
        return gamma * self._xhat + beta

    def backprop(self):
        x_node, gamma_node, beta_node = self.inputs
        gamma = gamma_node.value
        if gamma_node.wants_grad:
            self._accumulate(gamma_node, (self.grad * self._xhat).sum(axis=0))
        if beta_node.wants_grad:
            self._accumulate(beta_node, self.grad.sum(axis=0))
        if not x_node.wants_grad:
            return
        dxhat = self.grad * gamma
        n = self.grad.shape[0]
        dvar = (dxhat * self._centered).sum(axis=0) * (-0.5) * self._inv_std ** 3
        dmean = (-(dxhat * self._inv_std).sum(axis=0)
                 + dvar * (-2.0 / n) * self._centered.sum(axis=0))
        dx = dxhat * self._inv_std + dvar * 2.0 * self._centered / n + dmean / n
        self._accumulate(x_node, dx)


class _WeightedMse(Node):
    def __init__(self, pred, target, weight):
        super().__init__("weighted_mse", (pred, target, weight))

    def compute(self, ctx):
        pred, target, weight = (node.value for node in self.inputs)
        if pred.shape != target.shape or pred.shape != weight.shape:
            raise self.shape_error(
                f"pred {pred.shape}, target {target.shape}, weight {weight.shape}")
        diff = pred - target
        total = weight.sum()
        self._denom = total if total > 0.0 else 1.0
        # only a backward reads the difference
        self._diff = None if ctx.inference else diff
        return np.asarray((weight * diff ** 2).sum() / self._denom)

    def backprop(self):
        pred, target, weight = self.inputs
        scale = float(self.grad)
        if pred.wants_grad or target.wants_grad:
            dpred = scale * 2.0 * weight.value * self._diff / self._denom
            if pred.wants_grad:
                self._accumulate(pred, dpred)
            if target.wants_grad:
                self._accumulate(target, -dpred)
        if weight.wants_grad:
            self._accumulate(
                weight,
                scale * (self._diff ** 2 - self.value) / self._denom,
            )


class _Step(NamedTuple):
    """One needed node of a forward or inference schedule."""

    node: Node
    given: bool  # the value comes from the caller's ``given``
    check: bool  # the value goes through ``all_finite``
    reuse: bool  # the op writes into its first input's buffer
    shared: bool  # more than one node reads the value


class _Plan(NamedTuple):
    """A cached forward or inference schedule."""

    # per segment, its head's step and then its chain's, in run order
    segments: tuple
    needed: frozenset
    released: tuple  # the needed nodes whose value an inference pass drops


class _GradPlan(NamedTuple):
    """A cached backward schedule."""

    wants: tuple  # each graph node's ``wants_grad``, in graph order
    order: tuple  # the nodes that want a gradient, in reverse graph order
    filled: tuple  # the parameters and named inputs that end with one


def _non_finite(node: Node) -> NonFiniteError:
    return NonFiniteError(
        f"non-finite values produced by node '{node.name}' ({node.op})")


# Entries per row block of an inference segment (see ``Graph._run_blocks``):
# ``_INFER_BLOCK // width`` rows, 64 at width 256. Against whole arrays, a
# 4000-pair train-ecfp predict (padme-ecfp, hidden 256,256, 1024-pair
# chunks, after a 1-epoch fit) scored pairs/s -10.2% in blocks of 16 rows,
# +1.9% at 32, +8.7% at 64, +9.1% at 96, +6.0% at 128 and +0.9% at 256
# (medians of 40 interleaved calls each, 15.84 ms per call on whole arrays;
# 2-core Xeon with 2 MB L2 per core, OpenBLAS at 2 threads). A value under
# two blocks runs whole: the chain alone in two blocks took 111 against
# 107 us at 128 x 256, 52 against 45 us at 160 x 64 and 32 against 20 us at
# 6 x 256.
_INFER_BLOCK = 16384


def _block_rows(value) -> int:
    """Rows per block of a segment whose head holds ``value`` (an array or
    a ``GatherAdd``), or 0 when the segment runs whole: a value that is not
    2-d or has under two blocks of rows."""
    shape = getattr(value, "shape", ())
    if len(shape) != 2:
        return 0
    rows = max(1, _INFER_BLOCK // max(1, shape[1]))
    return rows if shape[0] >= 2 * rows else 0


class Graph:
    """Container and executor for a static computation graph."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._names: set[str] = set()
        self._op_counts: dict[str, int] = {}
        # forward and inference plans under (outputs, given, inference) keys,
        # backward plans under (loss, inputs) keys
        self._plans: dict[tuple, _Plan | _GradPlan] = {}
        # the nodes the last forward computed; a backward needs its loss there
        self._ready: frozenset = frozenset()

    # -- construction ----------------------------------------------------

    def add(self, node: Node, name: str | None = None) -> Node:
        """Register an externally built node (used by the graph-conv layers)
        under ``name``, else under the name it carries, if one was set."""
        if name is None and node.name != node.op:
            name = node.name
        return self._register(node, name)

    def _register(self, node: Node, name: str | None) -> Node:
        if name is None:
            count = self._op_counts.get(node.op, 0)
            self._op_counts[node.op] = count + 1
            name = f"{node.op}{count}"
        if name in self._names:
            raise EngineError(f"duplicate node name '{name}'")
        for inp in node.inputs:
            if inp not in self.nodes:
                raise EngineError(
                    f"node '{name}' uses an input that is not in this graph")
        node.name = name
        self._names.add(name)
        self.nodes.append(node)
        self._plans.clear()
        return node

    def placeholder(self, name: str) -> Placeholder:
        return self._register(Placeholder(name), name)

    def object_input(self, name: str) -> ObjectInput:
        return self._register(ObjectInput(name), name)

    def parameter(self, name: str, value: np.ndarray) -> Parameter:
        return self._register(Parameter(name, value), name)

    def matmul(self, a, b, name=None):
        return self._register(_MatMul(a, b), name)

    def indexed_dense(self, blocks, weight, name=None):
        """First-layer product over ``[(table, index), ...]`` blocks.

        Each ``table`` is a numeric node of distinct rows and each ``index``
        an ``ObjectInput`` fed a 1-d integer array mapping output rows to
        table rows; see ``_IndexedDense``.
        """
        return self._register(_IndexedDense(blocks, weight), name)

    def add_bias(self, x, bias, name=None):
        return self._register(_AddBias(x, bias), name)

    def relu(self, x, name=None):
        return self._register(_Relu(x), name)

    def dropout(self, x, rate, name=None):
        return self._register(_Dropout(x, rate), name)

    def batch_norm(self, x, gamma, beta, name=None):
        return self._register(_BatchNorm(x, gamma, beta), name)

    def weighted_mse(self, pred, target, weight, name=None):
        return self._register(_WeightedMse(pred, target, weight), name)

    # -- execution ---------------------------------------------------------

    def _ancestors(self, outputs, given=()) -> set[Node]:
        """The nodes ``outputs`` depend on; a node in ``given`` does not
        depend on its inputs."""
        needed: set[Node] = set()
        stack = list(outputs)
        while stack:
            node = stack.pop()
            if node in needed:
                continue
            needed.add(node)
            if node not in given:
                stack.extend(node.inputs)
        return needed

    def _plan(self, outputs: list[Node], given: dict,
              inference: bool) -> _Plan:
        key = (tuple(outputs), frozenset(given), inference)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._schedule(outputs, given,
                                                     inference)
        return plan

    def _schedule(self, outputs, given, inference: bool) -> _Plan:
        """The plan of an inference pass, or else of a training one."""
        for node in given:
            if node not in self.nodes:
                raise EngineError(f"a value is given for '{node.name}', "
                                  f"which is not a node of this graph")
        needed = self._ancestors(outputs, given)
        ordered = [node for node in self.nodes if node in needed]
        consumers = Counter(inp for node in ordered if node not in given
                            for inp in node.inputs)
        requested = set(outputs)
        finite: set[Node] = set()  # checked or implied finite in the pass
        fresh: set[Node] = set()  # buffers an op of this pass produced
        steps = []
        for node in ordered:
            is_given = node in given
            identity = isinstance(node, _Dropout) and (inference
                                                       or node.rate == 0.0)
            implied = (not is_given
                       and (identity or isinstance(node, _Relu))
                       and node.inputs[0] in finite)
            check = not (implied or isinstance(node, (ObjectInput, Parameter)))
            if check or implied:
                finite.add(node)
            reuse = False
            if inference and not is_given:
                reuse = (isinstance(node, _RowWise)
                         and node.inputs[0] in fresh
                         and consumers[node.inputs[0]] == 1
                         and node.inputs[0] not in requested)
                if not (identity or isinstance(
                        node, (Placeholder, ObjectInput, Parameter))):
                    fresh.add(node)
            steps.append(_Step(node, is_given, check, reuse,
                               consumers[node] > 1))
        if inference:
            # parameters first, so a chain reads its vectors' values
            steps.sort(key=lambda step: not isinstance(step.node, Parameter))
        segments = []
        for step in steps:
            node = step.node
            last = segments[-1][-1].node if segments else None
            if (inference and isinstance(node, _RowWise) and not step.given
                    and node.inputs[0] is last and last not in requested
                    and all(isinstance(inp, Parameter)
                            for inp in node.inputs[1:])):
                segments[-1].append(step)
            else:
                segments.append([step])
        released = tuple(node for node in ordered
                         if not isinstance(node, Parameter))
        return _Plan(tuple(map(tuple, segments)), frozenset(needed), released)

    def _run(self, plan: _Plan, ctx: _Context, given: dict,
             blocks: bool = False) -> bool:
        """Run ``plan``, raising the first failed check in plan order. With
        ``blocks``, each chain whose head holds at least two row blocks
        runs block by block (``_run_blocks``), and the run stops and
        returns False at a block that fails, without raising; the caller
        then reruns the plan without blocks, which raises the error."""
        for segment in plan.segments:
            head = segment[0]
            rows = 0
            for step in segment:
                node = step.node
                if step.given:
                    node.value = given[node]
                    if isinstance(node.value, GatherAdd):
                        node.value.check(node)
                else:
                    ctx.reuse = step.reuse
                    node.value = node.compute(ctx)
                if step is head and blocks and len(segment) > 1:
                    rows = _block_rows(node.value)
                if isinstance(node.value, GatherAdd) and (
                        not rows or step.shared):
                    node.value = node.value.form()
                if rows:
                    if not self._run_blocks(segment, rows):
                        return False
                    break
                if step.check and not all_finite(node.value):
                    raise _non_finite(node)
        return True

    @staticmethod
    def _run_blocks(segment: tuple, rows: int) -> bool:
        """Run a segment's chain over its head's value in blocks of
        ``rows`` rows, with one finiteness check per chain (see the module
        docstring); False at the first block that fails it, or when an
        op's vectors do not fit. A head given as a ``GatherAdd`` is
        gathered block by block into the first op's buffer, and that op
        runs in place on it. Each op's vectors are tiled once to a block's
        shape, so every elementwise op is one ufunc over contiguous
        operands. Floating-point warnings are silenced here; the rerun of a
        failed pass gives them."""
        x = segment[0].node.value
        # a check is kept unless a later kept check sees what it would
        keep, carried = [], False
        for step in reversed(segment):
            keep.append(step.check and not carried)
            carried = ((keep[-1] or carried)
                       and getattr(step.node, "passes_non_finite", False))
        keep.reverse()
        gathered = isinstance(x, GatherAdd)
        with np.errstate(all="ignore"):
            try:
                vectors = [step.node.operands(x) for step in segment[1:]]
            except ShapeError:
                return False
            ops = []  # (apply, output, tiles, check) per op
            value = x
            for step, vecs, check in zip(segment[1:], vectors, keep[1:]):
                # the plan's in-place rule, as in compute; a given head is
                # never written, so the first op has a buffer of its own
                if not step.reuse:
                    value = np.empty(x.shape)
                step.node.value = value
                ops.append((step.node.apply, value,
                            [np.repeat(v[None, :], rows, axis=0)
                             for v in vecs], check))
            if gathered:
                first, scratch = ops[0][1], np.empty((rows, x.shape[1]))
            for lo in range(0, x.shape[0], rows):
                hi = min(lo + rows, x.shape[0])
                if hi - lo < rows:  # the last block
                    ops = [(apply, value, [tile[:hi - lo] for tile in tiles],
                            check) for apply, value, tiles, check in ops]
                block = (x.gather(lo, hi, first[lo:hi], scratch[:hi - lo])
                         if gathered else x[lo:hi])
                if keep[0] and not all_finite(block):
                    return False
                for apply, value, tiles, check in ops:
                    block = apply(block, value[lo:hi], tiles)
                    if check and not all_finite(block):
                        return False
        return True

    def forward(self, feeds: dict, outputs: list[Node],
                rng: np.random.Generator | None = None) -> list[np.ndarray]:
        """The training pass: each needed node runs once and keeps its
        value, and each op keeps what its backward reads (``infer`` keeps
        nothing). Scores come from ``infer``."""
        plan = self._plan(outputs, {}, False)
        self._run(plan, _Context(feeds, rng), {})
        self._ready = plan.needed
        return [node.value for node in outputs]

    def infer(self, feeds: dict, outputs: list[Node],
              given: dict | None = None) -> list[np.ndarray]:
        """The inference pass: ``outputs`` with dropout off and batch
        normalization on its running statistics; no backward can follow.

        ``given`` maps nodes of this graph to values that the pass takes
        instead of computing them (an array, or a ``GatherAdd`` for an
        ``indexed_dense`` node); the nodes that only they need do not run.
        Ops may write into dead buffers of the pass, never into a given
        array or table. The row-wise chain after a product or a given
        value of at least two blocks of ``_INFER_BLOCK`` entries runs block
        by block on tiled vectors, with one finiteness check per chain; if
        a block fails, the plan reruns node by node on whole arrays, so the
        bytes and the errors are a node-by-node run's (see the module
        docstring). Whether the pass returns or raises, it leaves
        ``value = None`` on every node of its plan but the parameters, so
        it holds nothing once it is over.
        """
        given = given or {}
        plan = self._plan(outputs, given, True)
        self._ready = frozenset()
        ctx = _Context(feeds, None, inference=True)
        try:
            if not self._run(plan, ctx, given, blocks=True):
                self._run(plan, ctx, given)
            return [node.value for node in outputs]
        finally:
            for node in plan.released:
                node.value = None

    def backward(self, loss: Node, inputs: tuple[Node, ...] = ()) -> None:
        """Reverse-mode d(loss)/d(node) for the nodes that depend on a parameter.

        ``inputs`` names further nodes (usually placeholders) whose gradient
        the caller wants; the nodes between them and the loss are filled too.
        Every parameter and named input the loss reaches ends with a gradient,
        all zeros if nothing flowed into it; every other node ends with
        ``None`` unless it lies on such a path. A weight that carries a row
        selection and feeds ``indexed_dense`` ends with a ``CompactGrad``,
        the factors of its compact gradient: ``np.asarray`` forms it.
        """
        if loss not in self._ready or loss.value is None:
            raise EngineError("backward called before forward (an inference "
                              "pass does not count)")
        if np.size(loss.value) != 1:
            raise EngineError(
                f"loss node '{loss.name}' is not scalar: shape {loss.value.shape}")
        key = (loss, tuple(inputs))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._grad_plan(loss, inputs)
        for node, wants in zip(self.nodes, plan.wants):
            node.grad = None
            node.wants_grad = wants
        loss.grad = np.ones_like(loss.value)
        for node in plan.order:
            if node.grad is not None:
                node.backprop()
        for node in plan.filled:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)

    def _grad_plan(self, loss: Node, inputs) -> _GradPlan:
        named = set(inputs)
        for node in inputs:
            if node not in self.nodes or isinstance(node, ObjectInput):
                raise EngineError(
                    f"cannot take the gradient of '{node.name}': not a "
                    f"numeric node of this graph")
        reachable = self._ancestors([loss])
        wanting: set[Node] = set()
        for node in self.nodes:  # creation order: inputs are decided first
            if (node in reachable and not isinstance(node, ObjectInput)
                    and (isinstance(node, Parameter) or node in named
                         or any(inp in wanting for inp in node.inputs))):
                wanting.add(node)
        return _GradPlan(
            wants=tuple(node in wanting for node in self.nodes),
            order=tuple(node for node in reversed(self.nodes)
                        if node in wanting),
            filled=tuple(node for node in self.nodes if node in wanting
                         and (isinstance(node, Parameter) or node in named)))

    def zero_grad(self) -> None:
        for node in self.nodes:
            node.grad = None

    # -- state -------------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return [node for node in self.nodes if isinstance(node, Parameter)]

    def live_state(self) -> dict[str, np.ndarray]:
        """The arrays the graph holds, uncopied: every trainable parameter
        plus batch-norm running statistics. Read them, do not write them."""
        state = {p.name: p.array for p in self.parameters()}
        for node in self.nodes:
            if isinstance(node, _BatchNorm):
                state[f"{node.name}.running_mean"] = node.running_mean
                state[f"{node.name}.running_var"] = node.running_var
        return state

    def state_dict(self) -> dict[str, np.ndarray]:
        """A copy of :meth:`live_state`."""
        return {key: value.copy() for key, value in self.live_state().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Write ``state`` into the live arrays of the same names, in place."""
        live = self.live_state()
        require_finite(state)
        for key, value in state.items():
            if key not in live:
                raise EngineError(f"unknown state entry '{key}'")
            if live[key].shape != value.shape:
                raise ShapeError(
                    f"state entry '{key}': stored shape {value.shape} != "
                    f"expected {live[key].shape}")
            live[key][...] = value


# A block of rows is compacted to its active rows once at least this share
# of them is inactive; below it the block stays whole. A compacted block's
# update is gathered and written back through an index array, which costs
# more than it saves on a mostly active block: on train-ecfp's 10469x256
# first-layer weight (fingerprint block 59% inactive, descriptor block 3.8%)
# the isolated Adam step took 31.5-33.1 ms over every row, 30.3-30.7 ms with
# both blocks compacted and 27.9-28.8 ms with only the fingerprint block
# compacted (three interleaved medians of 25 steps, 2-core Xeon, OpenBLAS at
# 2 threads).
_COMPACT_INACTIVE_SHARE = 0.25
# A block is never compacted to fewer active rows than this, bar none: its
# gradient would be a product of 1 to 3 rows, which BLAS can round unlike
# the same rows of the whole block's product (a one-row product takes a
# vector kernel). With no active row there is no product at all.
_COMPACT_MIN_ROWS = 4


class RowSelection:
    """The rows of a 2-d weight that a fit can move, chosen per row block.

    ``active`` holds one boolean mask per block of the weight's rows, in row
    order (for ``indexed_dense``, one per input table). A block with at least
    ``_COMPACT_INACTIVE_SHARE`` of its rows inactive is compacted to its
    active rows, if it has none or at least ``_COMPACT_MIN_ROWS`` of them;
    any other block is kept whole. The compact layout stacks
    the kept rows block by block, each block's in ascending order.

    ``blocks`` holds ``(compact, columns, rows)`` per block: the slice of
    compact rows it occupies, ``None`` for a whole block or else its kept
    columns counted from the block's first row, and the weight rows it
    covers (a slice for a whole block, an index array otherwise).

    While a weight carries one, ``indexed_dense``'s backward leaves its
    gradient as a ``CompactGrad`` in the compact layout, and an ``Adam``
    built then keeps its moments in that layout.
    """

    def __init__(self, active):
        blocks = []
        widths = []
        first = kept = 0
        for mask in active:
            mask = np.asarray(mask, dtype=bool)
            width = mask.size
            columns = np.flatnonzero(mask)
            if (width - columns.size < _COMPACT_INACTIVE_SHARE * width
                    or 0 < columns.size < _COMPACT_MIN_ROWS):
                columns, rows, count = None, slice(first, first + width), width
            else:
                rows, count = first + columns, columns.size
            blocks.append((slice(kept, kept + count), columns, rows))
            widths.append(width)
            first += width
            kept += count
        self.blocks = tuple(blocks)
        self.widths = tuple(widths)
        self.n_rows = kept


# A product of float64 factors whose largest magnitudes and inner size
# multiply to less than this is finite: each entry sums ``rows`` terms of at
# most ``max|kept| * max|per_row|``, and rounding can grow that bound by a
# factor ``1 + rows * 2**-53`` at most, far below 2 for any array that fits
# in memory.
_FINITE_PRODUCT = np.finfo(np.float64).max / 2


def _magnitude_bound(a: np.ndarray) -> float:
    """At least ``max|a|`` and at most twice it (0 for an empty array), from
    two reductions without a temporary; NaN when ``a`` holds a NaN, and
    infinite when it holds an infinity."""
    return float(np.max(a, initial=0.0)) - float(np.min(a, initial=0.0))


class CompactGrad:
    """A row-selected weight's gradient, held as the factors of its product.

    ``blocks`` holds, per block of the ``RowSelection``, ``(compact,
    kept, per_row)``: the block's slice of compact rows, its table's kept
    columns (the table itself for a whole block) and the upstream gradient
    summed per table row. The block's gradient rows are
    ``kept.T @ per_row``, and ``rows`` is the one place that computes them:
    ``Adam.step`` forms one row block at a time into a scratch buffer, just
    before it updates those rows, and ``np.asarray`` forms the whole array
    in the compact layout. ``shape`` and ``any`` read like an array's.
    """

    def __init__(self, shape: tuple[int, int], blocks: list):
        self.shape = shape
        self.blocks = tuple(blocks)

    def rows(self, k: int, a: int, b: int, out: np.ndarray) -> np.ndarray:
        """Rows ``a:b`` of block ``k``'s gradient, computed in ``out``.

        The product runs over the rows ``lo:b``, with ``lo`` reaching back
        from ``b`` to fill ``out``'s rows where the block has them, and the
        last ``b - a`` rows are returned as a view of ``out``. A row's bytes
        then do not depend on how the rows are cut: a product of an Adam
        block's rows gives each row the bytes of the same row of the whole
        block's product, but a product of fewer rows can take another
        kernel whose sums round differently. On a 2-core Xeon with OpenBLAS
        0.3.31, a one-row product (a vector product) differed from the
        whole product's row at each inner size tested from 2 to 257, and
        products of 2 or 3 rows differed at inner sizes 512 and 1024, at
        every width from 16 to 256.
        """
        _, kept, per_row = self.blocks[k]
        lo = max(0, b - out.shape[0])
        window = np.matmul(kept[:, lo:b].T, per_row, out=out[:b - lo])
        return window[a - lo:]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        whole = np.empty(self.shape)
        for k, (compact, _, _) in enumerate(self.blocks):
            self.rows(k, 0, compact.stop - compact.start, whole[compact])
        return whole if dtype is None else whole.astype(dtype, copy=False)

    def any(self, axis=None):
        """``np.asarray(self).any(axis)``."""
        return np.asarray(self).any(axis=axis)

    def bounded(self) -> bool:
        """True when the factors prove every entry finite: each factor is
        finite and, per block, ``max|kept| * max|per_row| * rows`` stays
        under ``_FINITE_PRODUCT``. False does not mean an entry is not
        finite; the array then has to be formed and tested."""
        return all(_magnitude_bound(kept) * _magnitude_bound(per_row)
                   * per_row.shape[0] < _FINITE_PRODUCT
                   for _, kept, per_row in self.blocks)


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


# Entries per chunk of the flat Adam update, and per block of a
# row-selected weight's update, which takes ``_ADAM_CHUNK // width`` rows at
# a time (128 rows of a 256-wide weight, 512 of a 64-wide one), so the ~13
# elementwise passes over a block stay inside L2. On cv-cluster's 49
# parameters outside the row selection (99k entries) the isolated step took
# 1.23-1.79 ms in chunks of 2048 entries, 1.04-1.07 ms at 8192,
# 0.90-0.99 ms at 32768 and 0.86-1.03 ms at 131072, i.e. in one chunk
# (medians of 60 steps, three repeats, two rounds, 2-core Xeon); 32768
# keeps the two scratch chunks at 256 KiB each. Sizing the row blocks in
# entries rather than 128 rows cut cv-cluster's 64-wide first-layer update
# (2546 of 8549 rows kept for one fold) from 20 calls per step to 6: the
# isolated step of all 50 parameters took 2.72-3.07 ms with 128-row blocks
# and 2.47-2.97 ms with 512-row ones (medians of 60 steps, 15 per layout in
# five interleaved rounds, 2-core Xeon).
_ADAM_CHUNK = 32768


def _part(rows, lo: int, hi: int):
    """Entries ``lo:hi`` of ``rows``, a slice or an index array."""
    if isinstance(rows, slice):
        return slice(rows.start + lo, rows.start + hi)
    return rows[lo:hi]


def _settled(grad):
    """``grad`` as ``Adam.step`` reads it: an array, or a ``CompactGrad``
    whose factors prove it finite; any other ``CompactGrad`` is formed."""
    if isinstance(grad, CompactGrad) and not grad.bounded():
        return np.asarray(grad)
    return grad


def _finite(grad) -> bool:
    """Whether a settled gradient is finite."""
    return isinstance(grad, CompactGrad) or all_finite(grad)


class Adam:
    """Adam with bias correction; defaults lr=1e-3, betas=(0.9, 0.999), eps=1e-8.

    Building the optimizer packs every parameter without a
    ``row_selection`` into one flat buffer, ``flat_theta``, in parameter
    order: each such ``Parameter.array`` (and ``value``) is rebound to a
    view of its span, and its moments ``state.m[name]``/``state.v[name]``
    are views of ``flat_m``/``flat_v`` with the same layout. ``step``
    gathers their gradients into one flat array and runs the update over
    the flat buffers in chunks of ``_ADAM_CHUNK`` entries, through two
    scratch buffers of one chunk, so a step allocates nothing of parameter
    size.

    A parameter that carries a ``row_selection`` when the optimizer is
    built stays where it is; its gradient and moments are in that
    selection's compact layout, and ``step`` moves only the selected rows,
    ``_ADAM_CHUNK // width`` at a time. Its gradient is an array or a
    ``CompactGrad``. A ``CompactGrad`` whose factors bound it (``bounded``)
    is formed one row block at a time into a third scratch buffer, just
    before that block's update reads it, so the step never holds the
    weight's gradient; any other is formed whole, tested like an array and
    read as one.
    """

    def __init__(self, parameters: list[Parameter], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = AdamState()
        self._flat = [p for p in self.parameters if p.row_selection is None]
        self._selected = [p for p in self.parameters
                          if p.row_selection is not None]
        size = sum(p.array.size for p in self._flat)
        self.flat_theta = np.empty(size)
        self.flat_m = np.zeros(size)
        self.flat_v = np.zeros(size)
        self._flat_grad = np.empty(size)
        # per row-selected parameter: (compact rows, weight rows) per block
        self._blocks: dict[str, tuple] = {}
        scratch = min(size, _ADAM_CHUNK)
        offset = 0
        for p in self.parameters:
            selection = p.row_selection
            if selection is None:
                span = slice(offset, offset + p.array.size)
                offset = span.stop
                theta = self.flat_theta[span].reshape(p.array.shape)
                theta[...] = p.array
                p.array = p.value = theta
                self.state.m[p.name] = self.flat_m[span].reshape(theta.shape)
                self.state.v[p.name] = self.flat_v[span].reshape(theta.shape)
                continue
            shape = (selection.n_rows, p.array.shape[1])
            self._blocks[p.name] = tuple(
                (compact, weight_rows)
                for compact, _, weight_rows in selection.blocks)
            self.state.m[p.name] = np.zeros(shape)
            self.state.v[p.name] = np.zeros(shape)
            block_rows = max(1, _ADAM_CHUNK // shape[1])
            scratch = max(scratch, min(shape[0], block_rows) * shape[1])
        # two for the update's temporaries, one for a CompactGrad's block
        self._scratch = tuple(np.empty(scratch) for _ in range(3))

    def step(self) -> None:
        """One update; raises before writing anything if a gradient is bad."""
        for p in self.parameters:
            if p.grad is None:
                raise EngineError(f"parameter '{p.name}' has no gradient")
            expected = self.state.m[p.name].shape
            if p.grad.shape != expected:
                raise ShapeError(f"gradient {p.grad.shape} of parameter "
                                 f"'{p.name}' does not match {expected}")
        flat_grad = self._flat_grad
        if self._flat:
            np.concatenate([p.grad.reshape(-1) for p in self._flat],
                           out=flat_grad)
        grads = [_settled(p.grad) for p in self._selected]
        if not (all_finite(flat_grad) and all(map(_finite, grads))):
            bad = next(p for p in self.parameters
                       if not _finite(_settled(p.grad)))
            raise NonFiniteError(f"non-finite gradient for parameter '{bad.name}'")
        self.state.step += 1
        t = self.state.step
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for lo in range(0, flat_grad.size, _ADAM_CHUNK):
            chunk = slice(lo, lo + _ADAM_CHUNK)
            self._update(self.flat_theta, chunk, flat_grad[chunk],
                         self.flat_m[chunk], self.flat_v[chunk], bias1, bias2)
        for p, grad in zip(self._selected, grads):
            m, v = self.state.m[p.name], self.state.v[p.name]
            width = m.shape[1]
            block_rows = max(1, _ADAM_CHUNK // width)
            out = self._scratch[2][:min(block_rows, m.shape[0]) * width]
            out = out.reshape(-1, width)
            for k, (compact, weight_rows) in enumerate(self._blocks[p.name]):
                for lo in range(compact.start, compact.stop, block_rows):
                    hi = min(lo + block_rows, compact.stop)
                    a, b = lo - compact.start, hi - compact.start
                    g = (grad.rows(k, a, b, out)
                         if isinstance(grad, CompactGrad) else grad[lo:hi])
                    self._update(p.array, _part(weight_rows, a, b), g,
                                 m[lo:hi], v[lo:hi], bias1, bias2)

    def _update(self, theta, rows, g, m, v, bias1, bias2) -> None:
        """The textbook rule, in its textbook order, on one block: ``m`` and
        ``v`` in place and ``theta[rows]`` moved by the step."""
        a = self._scratch[0][:g.size].reshape(g.shape)
        b = self._scratch[1][:g.size].reshape(g.shape)
        b1, b2 = self.beta1, self.beta2
        # m = b1*m + (1-b1)*g
        m *= b1
        np.multiply(1.0 - b1, g, out=a)
        m += a
        # v = b2*v + ((1-b2)*g)*g
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        a *= g
        v += a
        # theta -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, bias2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, bias1, out=b)
        np.multiply(self.learning_rate, b, out=b)
        b /= a
        theta[rows] -= b
