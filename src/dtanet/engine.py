"""A fixed stack of float64 layers with reverse-mode differentiation.

A ``Graph`` is an ordered list of layers. Each layer's ``compute`` maps
the previous layer's value to its own; the first layer reads its input
from the batch's feeds (an ``Input``, or ``IndexedDense``'s tables and row
indices), and a layer reads any other feed it needs by name (the loss its
targets and weights, the graph-conv layers their ``GraphBatch``).
``Graph.forward`` runs the layers in order and raises as soon as any layer
produces a non-finite value; ``backward`` runs them in reverse. Parameter
values are checked where they enter rather than on every pass: every value
a caller hands to ``Parameter`` (which keeps that float64 array, uncopied)
and every state ``Graph.load_state`` writes. A parameter written by hand
is caught by the first layer that reads it. The one way in without a check
is ``Parameter.empty``, whose entries are unset: its maker writes and
checks every entry before the parameter leaves its hands (as
``Model.load`` does), and drops it when that fails. Every finiteness check
(layer outputs, feeds, parameters, loaded state, Adam's gradients) is
``all_finite``, the entrywise test.

``IndexedDense`` is the first dense layer of a model whose input row joins
several blocks (a compound vector and a protein descriptor): each block is
a table of distinct rows plus an integer index per output row, and the
layer computes ``sum_k (T_k @ W[rows_k])[index_k]``, so a row shared by
many pairs is projected once. Its backward sums the upstream gradient per
table row (``per_row``); a block's weight gradient rows are
``T_k.T @ per_row``. It forms them into one array, except while the weight
carries a row selection (a fit): then the gradient is a ``CompactGrad`` of
those factors, which ``Adam.step`` forms block by block. The layer is
``project(table, lo)`` per block followed by a gather-add.

There are two passes: ``Graph.forward`` trains and ``Graph.infer``
scores. A layer's value is checked for finiteness after it computes,
except a ReLU's and an identity dropout's (rate 0, or in ``infer``): the
value before either was checked, and neither can turn finite input into a
non-finite value. An ``Input``'s feed, like every numeric feed a layer
reads, is checked as it is read, and a non-finite feed is named as the
input it is.

``Graph.infer(feeds, x, start, stop)`` runs the layers ``start:stop`` with
no dropout and batch normalization on its running statistics; no backward
follows it. A pass from ``start > 0`` takes ``x`` as the value of layer
``start - 1``, checked like a computed one: ``FeatureStore.predict``
projects the distinct rows of a whole call once through ``project`` and
hands each chunk the first layer's value as a ``GatherAdd``, the projected
tables and the chunk's row indices, not their sum. A blocked chain (below)
gathers it block by block; any other reader gets it formed once.

``AddBias``, ``BatchNorm`` and ``Relu`` are row-wise: row ``i`` of the
result reads row ``i`` of the input and one entry per column of some
vectors. The stack finds, when it is built, where each run of row-wise
layers ends: in ``infer`` such a run is the chain of the value before it
(a product, another layer's value or the given ``x``). A row-wise layer
writes its result into its input's buffer when a layer of the same pass
produced that buffer; a feed, a parameter, the given ``x`` and an identity
dropout's alias of its input are never written.

When the chain's first value has at least two blocks of rows, a block
being ``_INFER_BLOCK`` entries (``_INFER_BLOCK // width`` rows, 64 at
width 256), the chain runs block by block: each block is gathered (from a
given ``GatherAdd``, into the first layer's buffer) or sliced from the
value, then goes through every layer while it stays in L2. Each layer's
vectors (the bias; the running mean, ``1/sqrt(running_var + eps)``, gamma
and beta) are tiled to a block's shape, so each elementwise step is one
ufunc over contiguous operands; the tiles are built once per ``tiles``
dict a caller passes (``FeatureStore.predict`` passes one per call),
else once per pass. A chain under two blocks runs layer by layer on whole
arrays and plain vectors, and builds no tile. Each layer's inference
arithmetic is one method (``apply``) that both ways call, so every element
goes through the same IEEE operations on the same values in the same
order, and no byte changes.

A block runs one finiteness check per chain, not one per layer. A check
is dropped when every layer after it, up to a check that is kept, passes
non-finite entries on (``_RowWise.passes_non_finite``): ``AddBias`` and
``BatchNorm`` add, subtract and multiply, and in IEEE arithmetic a NaN or
an infinity stays non-finite at its position whatever the other operand
holds (inf*0 and inf-inf give NaN), a NaN or infinity in a parameter's
vector included. ReLU maps -inf to 0, so no check before it is dropped on
its account. In a hidden layer the batch-norm output (or the bias add's
without batch norm) is checked and the product and the bias add are not.
When a block's check fails, or a layer's vectors do not fit, the blocked
run stops and ``infer`` reruns its layers one by one on whole arrays,
which raises the error such a run raises: the failed layer that comes
first, or the ``ShapeError`` after the checks before it. The blocked run
silences floating-point warnings, so a failing call warns as the rerun
does.

A layer keeps nothing of a pass but ``saved``: what a training
``forward`` keeps for its backward (the ReLU mask, batch normalization's
centered and normalized input, the graph convolution's input, neighbor
sums and mask, the graph pooling winners, the loss's residual); no
backward derives such state from its input. ``infer`` first sets every
layer's ``saved`` to ``None`` and keeps nothing, so once it returns or
raises the stack holds only its parameters and batch-norm running
statistics. A caller's feed or ``x`` is only read, never written.

Model state is the parameters and the batch-norm running statistics, and
all of it exists from construction: a batch norm allocates its running
mean (zeros) and variance (ones), sized from its ``gamma``, when it is
built. No pass creates state; a training ``forward`` moves the running
statistics and ``infer`` only reads them. ``Graph.live_state`` lists every
entry, and ``Graph.load_state`` writes each one in place after checking
its name and shape.

``backward`` runs from the loss of the last ``forward``. Each layer's
``backprop`` takes the gradient of its value, sets its parameters'
``grad`` and returns its input's gradient, which only layers after the
first layer with parameters are asked for: the gradient of the
fingerprint and descriptor tables and of the first graph convolution's
atom features is never formed. No layer keeps a gradient. After a
backward pass every parameter holds a gradient (all zeros when nothing
flowed into it; in the compact layout of its row selection, if it has
one, and then a ``CompactGrad`` when ``IndexedDense`` gave it).

``Adam.step`` updates parameters and moments in place, with the arithmetic
of the textbook rule in its textbook order, so it is bitwise equal to the
plain expression. Building an ``Adam`` packs every parameter without a row
selection into one flat float64 buffer, in parameter order, and rebinds
each such ``Parameter.array`` to a view of its span; the moments are views
of flat buffers with the same layout. A step gathers those gradients into
one flat array and runs the update once over the flat buffers, in fixed
chunks, instead of once per parameter: the graph-conv model has dozens of
small per-degree parameters, and the per-call overhead of ~14 ufuncs each
outweighed their arithmetic. This is exact: every entry goes through the
same IEEE-rounded elementwise operations with the same scalars in the same
order, and packing only moves bytes.

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
stays whole. While the selection is set, ``IndexedDense``'s backward
leaves the weight gradient as a ``CompactGrad``: per block, the kept table
columns (``T[:, cols]`` for a compacted block, ``T`` for a whole one) and
the upstream gradient summed per table row, whose product is the gradient
of the selected rows in the compact layout. An ``Adam`` built then keeps
that weight's moments in the same layout, updates only those rows, and
forms each row block of the gradient just before that block's update, so a
fit never holds the weight's gradient: its floor is the weight and its two
compact moments. The forward still reads the full weight, so validation
and prediction see every row.

There is no weight decay, so an inactive row's gradient is ±0 at every
step of the fit: its moments would stay +0 and its update
``lr*0/(sqrt(0)+eps)`` is +0, which leaves the row as it was. Skipping it
changes no byte. Each selected row's gradient entry is the same dot
product over the batch's distinct table rows as on the full path (the
tests check the compact product, whole and per Adam block, bitwise against
the full one; ``CompactGrad.rows`` says how a block's product is cut so
that it is) and its update runs the same arithmetic, so the parameters are
byte-identical to a fit over every row while a batch holds fewer than
about 400 distinct table rows. At 400 and more the bytes can differ: with
OpenBLAS 0.3.31 at 2 threads the weight bytes differed at every seed tried
with 400, 448, 480, 511 and 512 distinct rows, and at none with 64, 256,
300, 384 and 385. The default ``train.batch_size`` of 32 stays far below.
A column-compacted forward ``T[:, cols] @ W[cols]`` would not be exact
either: it sums over the columns in another order.

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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "EngineError",
    "ShapeError",
    "NonFiniteError",
    "Parameter",
    "Layer",
    "Input",
    "IndexedDense",
    "MatMul",
    "AddBias",
    "Relu",
    "Dropout",
    "BatchNorm",
    "WeightedMse",
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


class _Context(NamedTuple):
    """One pass's feeds and kind. ``inference`` is set in ``Graph.infer``,
    after which no backward runs."""

    feeds: dict
    rng: np.random.Generator | None
    inference: bool = False


def _non_finite(name: str, op: str) -> NonFiniteError:
    return NonFiniteError(f"non-finite values produced by node '{name}' ({op})")


def fed(ctx: _Context, name: str, numeric: bool = True):
    """The feed ``name``; a numeric one as float64, checked for
    finiteness and named as an input when it fails."""
    try:
        value = ctx.feeds[name]
    except KeyError:
        raise EngineError(f"no value fed for input '{name}'") from None
    if not numeric:
        return value
    value = np.asarray(value, dtype=np.float64)
    if not all_finite(value):
        raise _non_finite(name, "input")
    return value


class Parameter:
    """A trainable array. It keeps the array it is handed when that is a
    writeable float64 array (the caller hands it over), else a float64
    copy, and checks it for finiteness."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.array = np.require(value, np.float64, "W")
        if not all_finite(self.array):
            raise NonFiniteError(f"parameter '{name}' has non-finite values")
        self.grad: np.ndarray | CompactGrad | None = None
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


class Layer:
    """One layer of a ``Graph``: its name, its op, its parameters and what
    a training forward keeps for its backward (``saved``)."""

    op = "layer"

    def __init__(self, name: str | None = None, params=()):
        self.name = name or self.op
        self.params = tuple(params)
        self.saved = None

    def compute(self, x, ctx: _Context) -> np.ndarray:
        """The value from ``x``, the previous layer's value (``None`` for
        the stack's first layer): an array of its own, never ``x``'s buffer
        (identity dropout alone returns ``x``), because ``Graph.infer`` may
        write into it. Only a training forward sets ``saved``."""
        raise NotImplementedError

    def backprop(self, grad: np.ndarray, need_input: bool):
        """Set each parameter's ``grad`` from ``grad``, the gradient of the
        value; return the input's gradient when ``need_input``."""
        raise NotImplementedError

    def fresh(self, ctx: _Context) -> bool:
        """Whether the value is a buffer of the pass, one a later row-wise
        layer of ``infer`` may write into, rather than a checked feed or
        the input itself."""
        return True

    def implied(self, ctx: _Context) -> bool:
        """Whether the value is finite whenever the input is, so that it
        is not checked: a value that is not fresh was checked already."""
        return not self.fresh(ctx)

    def shape_error(self, detail: str) -> ShapeError:
        return ShapeError(f"{self.name} ({self.op}): {detail}")


class Input(Layer):
    """The stack's input: the feed of the layer's name, checked as it is
    read."""

    op = "input"

    def compute(self, x, ctx):
        return fed(ctx, self.name)

    def fresh(self, ctx):
        return False


class MatMul(Layer):
    op = "matmul"

    def __init__(self, weight: Parameter, name: str | None = None):
        super().__init__(name, (weight,))

    def compute(self, x, ctx):
        w = self.params[0].array
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise self.shape_error(f"cannot multiply {x.shape} by {w.shape}")
        if not ctx.inference:
            self.saved = x
        return x @ w

    def backprop(self, grad, need_input):
        w = self.params[0]
        w.grad = self.saved.T @ grad
        return grad @ w.array.T if need_input else None


def _check_indices(layer: Layer, tables, indices, names) -> None:
    """``layer``'s ShapeError unless each index is a 1-d integer array
    inside its table's rows and all have one length; ``names`` says what
    each index is in the message."""
    counts = set()
    for table, index, name in zip(tables, indices, names):
        if (not isinstance(index, np.ndarray) or index.ndim != 1
                or not np.issubdtype(index.dtype, np.integer)):
            raise layer.shape_error(f"{name} must be a 1-d integer array")
        if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
            raise layer.shape_error(f"{name} leaves the range of its "
                                    f"{table.shape[0]}-row table")
        counts.add(index.size)
    if len(counts) != 1:
        raise layer.shape_error(f"indices differ in length: {sorted(counts)}")


class GatherAdd(NamedTuple):
    """``IndexedDense``'s value before it is formed: row ``i`` is
    ``tables[0][indices[0][i]] + tables[1][indices[1][i]] + ...``, added in
    that order, each table holding projected rows.

    ``Graph.infer`` takes one as the value of an ``IndexedDense`` layer. A
    blocked chain (see ``Graph._run_blocks``) gathers each row block
    straight into its first layer's buffer; any other reader gets the
    array ``form`` makes. ``IndexedDense.compute`` forms its value here
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

    def check(self, layer: Layer) -> None:
        """``layer``'s ShapeError unless the tables are 2-d of one width
        and the indices fit them (``gather`` reads them unchecked)."""
        if any(t.ndim != 2 or t.shape[1] != self.tables[0].shape[1]
               for t in self.tables) or len(self.indices) != len(self.tables):
            raise layer.shape_error(
                f"a given gather-add needs 2-d tables of one width, one "
                f"index each: got tables {[t.shape for t in self.tables]} "
                f"and {len(self.indices)} indices")
        _check_indices(layer, self.tables, self.indices,
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


class IndexedDense(Layer):
    """``sum_k (T_k @ W[rows_k])[index_k]``: a dense layer over joined tables.

    ``blocks`` names, per block, the feed of its table (``None`` for the
    previous layer's value) and the feed of its index, which maps each
    output row to one of the table's rows; the blocks' widths split ``W``'s
    rows in order. The result equals ``concat([T_k[index_k]]) @ W`` up to
    summation order, but each distinct row is projected once. The backward
    sums the upstream gradient per distinct table row (``per_row``); ``W``'s
    gradient rows of a block are then ``T_k.T @ per_row``. While ``W``
    carries a row selection, the backward forms no array for them: it
    leaves a ``CompactGrad`` of each block's kept columns and ``per_row``,
    in the selection's compact layout, which ``Adam.step`` forms block by
    block. Without a selection it forms the whole gradient array. Only the
    previous layer's table gets an input gradient.

    The layer is ``project`` per block followed by a gather-add.
    """

    op = "indexed_dense"

    def __init__(self, blocks, weight: Parameter, name: str | None = None):
        super().__init__(name, (weight,))
        self.blocks = tuple(blocks)

    def project(self, table: np.ndarray, lo: int) -> np.ndarray:
        """``table @ W[lo:lo + width]``: rows of the block whose columns
        start at weight row ``lo``, through that block of the weight."""
        return table @ self.params[0].array[lo:lo + table.shape[1]]

    def compute(self, x, ctx):
        tables, indices = [], []
        for table, index in self.blocks:
            tables.append(x if table is None else fed(ctx, table))
            indices.append(fed(ctx, index, numeric=False))
        w = self.params[0].array
        if w.ndim != 2 or any(t.ndim != 2 for t in tables):
            raise self.shape_error(
                f"expected 2-d tables and weight, got tables "
                f"{[t.shape for t in tables]} and weight {w.shape}")
        if sum(t.shape[1] for t in tables) != w.shape[0]:
            raise self.shape_error(
                f"table widths {[t.shape[1] for t in tables]} do not sum to "
                f"the weight's {w.shape[0]} rows")
        _check_indices(self, tables, indices,
                       [f"index '{index}'" for _, index in self.blocks])
        if not ctx.inference:
            self.saved = (tables, indices)
        projected, lo = [], 0
        for table in tables:
            projected.append(self.project(table, lo))
            lo += table.shape[1]
        return GatherAdd(tuple(projected), tuple(indices)).form()

    def backprop(self, grad, need_input):
        w = self.params[0]
        tables, indices = self.saved
        widths = tuple(table.shape[1] for table in tables)
        selection = w.row_selection or RowSelection(
            [np.ones(width, dtype=bool) for width in widths])
        if selection.widths != widths:
            raise self.shape_error(
                f"row selection of '{w.name}' covers blocks "
                f"{list(selection.widths)}, the tables are "
                f"{list(widths)} wide")
        factors, dx, lo = [], None, 0
        for (source, _), table, index, (compact, columns, _) in zip(
                self.blocks, tables, indices, selection.blocks):
            # the rows of grad summed per distinct table row
            per_row = np.zeros((table.shape[0], grad.shape[1]))
            np.add.at(per_row, index, grad)
            kept = table if columns is None else table[:, columns]
            factors.append((compact, kept, per_row))
            if source is None and need_input:
                dx = per_row @ w.array[lo:lo + table.shape[1]].T
            lo += table.shape[1]
        w.grad = CompactGrad((selection.n_rows, w.array.shape[1]), factors)
        if w.row_selection is None:
            w.grad = np.asarray(w.grad)
        return dx


class _RowWise(Layer):
    """A layer whose row ``i`` reads only row ``i`` of its input, plus
    vectors of one entry per column (``operands``). Its inference
    arithmetic is ``apply``: ``Graph.infer`` calls it once on the whole
    input with the plain vectors, or once per row block with the vectors
    tiled to the block's shape (see ``Graph._run_blocks``); ``compute`` is
    the training forward.

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


class AddBias(_RowWise):
    op = "add_bias"
    passes_non_finite = True

    def __init__(self, bias: Parameter, name: str | None = None):
        super().__init__(name, (bias,))

    def operands(self, x):
        bias = self.params[0].array
        if bias.ndim != 1 or x.ndim != 2 or x.shape[1] != bias.shape[0]:
            raise self.shape_error(f"bias {bias.shape} does not fit {x.shape}")
        return (bias,)

    def apply(self, x, out, operands):
        return np.add(x, operands[0], out=out)

    def compute(self, x, ctx):
        return self.apply(x, None, self.operands(x))

    def backprop(self, grad, need_input):
        self.params[0].grad = grad.sum(axis=0)
        return grad


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


class Relu(_RowWise):
    """A training forward keeps the mask of positive inputs."""

    op = "relu"

    def apply(self, x, out, operands):
        return relu(x, out=out)

    def compute(self, x, ctx):
        self.saved = x > 0.0
        return relu(x)

    def backprop(self, grad, need_input):
        return grad * self.saved

    def implied(self, ctx):
        return True


class Dropout(Layer):
    op = "dropout"

    def __init__(self, rate: float, name: str | None = None):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise EngineError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def compute(self, x, ctx):
        if not self.fresh(ctx):
            return x
        if ctx.rng is None:
            raise EngineError(f"{self.name}: training-mode dropout needs an rng")
        keep = ctx.rng.random(x.shape) >= self.rate
        self.saved = keep / (1.0 - self.rate)
        return x * self.saved

    def backprop(self, grad, need_input):
        return grad if self.saved is None else grad * self.saved

    def fresh(self, ctx):
        """False for an identity dropout (rate 0, or in ``infer``)."""
        return not (ctx.inference or self.rate == 0.0)


class BatchNorm(_RowWise):
    """Per-feature normalization over the batch, with running statistics.

    The running mean (zeros) and variance (ones) are allocated here, one
    entry per ``gamma`` entry, so they exist before any pass. A training
    ``forward`` normalizes with the batch's statistics, moves the running
    ones, and keeps the centered and normalized input its backward reads.
    ``infer`` normalizes with the running statistics: ``apply`` subtracts
    the running mean, multiplies by ``1/sqrt(running_var + eps)`` and by
    gamma, and adds beta, on the whole input with plain vectors or on a row
    block with tiled ones.

    Each ``forward`` moves the running statistics by ``momentum``; ``eps``
    is added to every variance before its square root. Both are constants.
    """

    op = "batchnorm"
    momentum = 0.9
    eps = 1e-5
    passes_non_finite = True

    def __init__(self, gamma: Parameter, beta: Parameter,
                 name: str | None = None):
        super().__init__(name, (gamma, beta))
        self.running_mean = np.zeros(gamma.array.shape)
        self.running_var = np.ones(gamma.array.shape)

    def _fit(self, x):
        """``gamma`` and ``beta``, checked against ``x``'s shape."""
        gamma, beta = (p.array for p in self.params)
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

    def compute(self, x, ctx):
        gamma, beta = self._fit(x)
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        self.running_mean = (self.momentum * self.running_mean
                             + (1.0 - self.momentum) * mean)
        self.running_var = (self.momentum * self.running_var
                            + (1.0 - self.momentum) * var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        centered = x - mean
        xhat = centered * inv_std
        self.saved = (inv_std, centered, xhat)
        return gamma * xhat + beta

    def backprop(self, grad, need_input):
        inv_std, centered, xhat = self.saved
        gamma, beta = self.params
        gamma.grad = (grad * xhat).sum(axis=0)
        beta.grad = grad.sum(axis=0)
        if not need_input:
            return None
        dxhat = grad * gamma.array
        n = grad.shape[0]
        dvar = (dxhat * centered).sum(axis=0) * (-0.5) * inv_std ** 3
        dmean = (-(dxhat * inv_std).sum(axis=0)
                 + dvar * (-2.0 / n) * centered.sum(axis=0))
        return dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n


class WeightedMse(Layer):
    """The loss: the weighted mean squared difference between the value
    and the ``target`` feed, with the ``weight`` feed's weights."""

    op = "weighted_mse"

    def compute(self, pred, ctx):
        target, weight = fed(ctx, "target"), fed(ctx, "weight")
        if pred.shape != target.shape or pred.shape != weight.shape:
            raise self.shape_error(
                f"pred {pred.shape}, target {target.shape}, weight {weight.shape}")
        diff = pred - target
        total = weight.sum()
        denom = total if total > 0.0 else 1.0
        if not ctx.inference:
            self.saved = (weight, diff, denom)
        return np.asarray((weight * diff ** 2).sum() / denom)

    def backprop(self, grad, need_input):
        weight, diff, denom = self.saved
        return float(grad) * 2.0 * weight * diff / denom


# Entries per row block of an inference chain (see ``Graph._run_blocks``):
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
    """Rows per block of a chain after ``value`` (an array or a
    ``GatherAdd``), or 0 when the chain runs whole: a value that is not
    2-d or has under two blocks of rows."""
    shape = getattr(value, "shape", ())
    if len(shape) != 2:
        return 0
    rows = max(1, _INFER_BLOCK // max(1, shape[1]))
    return rows if shape[0] >= 2 * rows else 0


class _Rerun(Exception):
    """A blocked chain failed a check, or its vectors do not fit: the pass
    reruns on whole arrays, which raises the error."""


class Graph:
    """An ordered stack of layers; see the module docstring."""

    def __init__(self, layers):
        self.layers: list[Layer] = list(layers)
        # per position, the end of the run of row-wise layers from there on
        self._run_ends = [len(self.layers)]
        for i in range(len(self.layers) - 1, -1, -1):
            self._run_ends.insert(0, self._run_ends[0] if isinstance(
                self.layers[i], _RowWise) else i)
        # the last training forward's loss, which a backward starts from
        self._loss: np.ndarray | None = None

    @property
    def nodes(self) -> list:
        """Every layer, each after its parameters."""
        return [node for layer in self.layers
                for node in (*layer.params, layer)]

    # -- execution ---------------------------------------------------------

    def forward(self, feeds: dict,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """The training pass over every layer: each layer keeps what its
        backward reads (``infer`` keeps nothing). Returns the last layer's
        value, the loss a ``backward`` may then start from."""
        self._loss = None
        ctx = _Context(feeds, rng)
        x = None
        for layer in self.layers:
            x = layer.compute(x, ctx)
            if not layer.implied(ctx) and not all_finite(x):
                raise _non_finite(layer.name, layer.op)
        self._loss = x
        return x

    def infer(self, feeds: dict, x=None, start: int = 0, stop: int | None = None,
              tiles: dict | None = None) -> np.ndarray:
        """The inference pass over ``layers[start:stop]``: dropout off and
        batch normalization on its running statistics; no backward can
        follow. Returns the last of those layers' value.

        From ``start > 0``, ``x`` is layer ``start - 1``'s value (an array,
        or a ``GatherAdd`` for an ``IndexedDense`` layer), checked as that
        layer's value is; it is never written. Each row-wise chain after a
        value of at least two blocks of ``_INFER_BLOCK`` entries runs block
        by block on tiled vectors, with one finiteness check per chain,
        the tiles kept in ``tiles`` (a fresh dict when it is ``None``) for
        later passes to reuse; if a block fails, the layers rerun one by
        one on whole arrays, so the bytes and the errors are those of such
        a run (see the module docstring). The pass leaves every layer's
        ``saved`` at ``None``.
        """
        self._loss = None
        for layer in self.layers:
            layer.saved = None
        stop = len(self.layers[:stop])
        ctx = _Context(feeds, None, inference=True)
        try:
            return self._infer(ctx, x, start, stop,
                               {} if tiles is None else tiles)
        except _Rerun:
            return self._infer(ctx, x, start, stop, None)

    def _infer(self, ctx: _Context, x, start: int, stop: int,
               tiles: dict | None):
        """``layers[start:stop]`` from ``x``; with ``tiles``, each chain
        that has at least two row blocks runs in blocks (``_run_blocks``),
        which raises ``_Rerun`` where a block fails."""
        i, head = start, None
        if start:  # the given value heads the chain after it
            head, check, fresh = self.layers[start - 1], True, False
            if isinstance(x, GatherAdd):
                x.check(head)
        while True:
            if head is None:
                head = self.layers[i]
                x = head.compute(x, ctx)
                check, fresh = not head.implied(ctx), head.fresh(ctx)
                i += 1
            chain = self.layers[i:min(self._run_ends[i], stop)]
            rows = _block_rows(x) if tiles is not None and chain else 0
            if rows:
                x = self._run_blocks(ctx, head, check, x, fresh, chain,
                                     rows, tiles)
            else:
                if isinstance(x, GatherAdd):
                    x = x.form()
                if check and not all_finite(x):
                    raise _non_finite(head.name, head.op)
                for layer in chain:
                    x = layer.apply(x, x if fresh else None, layer.operands(x))
                    fresh = True
                    if not layer.implied(ctx) and not all_finite(x):
                        raise _non_finite(layer.name, layer.op)
            i += len(chain)
            if i >= stop:
                return x
            head = None

    @staticmethod
    def _run_blocks(ctx: _Context, head: Layer, check: bool, x, fresh: bool,
                    chain: list, rows: int, tiles: dict) -> np.ndarray:
        """Run ``chain`` over ``x``, ``head``'s value, in blocks of ``rows``
        rows, with one finiteness check per chain (see the module
        docstring); ``_Rerun`` at the first block that fails it, or when a
        layer's vectors do not fit. An ``x`` given as a ``GatherAdd`` is
        gathered block by block into the first layer's buffer, and that
        layer runs in place on it. Each layer's vectors are tiled to a
        block's shape once per ``tiles``, so every elementwise step is one
        ufunc over contiguous operands. Floating-point warnings are
        silenced here; the rerun of a failed pass gives them."""
        # a check is kept unless a later kept check sees what it would
        checks = [check] + [not layer.implied(ctx) for layer in chain]
        keep, carried = [], False
        for layer, checked in zip(reversed([head, *chain]), reversed(checks)):
            keep.append(checked and not carried)
            carried = ((keep[-1] or carried)
                       and getattr(layer, "passes_non_finite", False))
        keep.reverse()
        gathered = isinstance(x, GatherAdd)
        with np.errstate(all="ignore"):
            ops = []  # (apply, output, tiles, check) per layer
            value = x
            for layer, kept in zip(chain, keep[1:]):
                key = (layer, x.shape[1])
                if key not in tiles:
                    try:
                        vectors = layer.operands(x)
                    except ShapeError:
                        raise _Rerun from None
                    tiles[key] = [np.repeat(v[None, :], rows, axis=0)
                                  for v in vectors]
                # the in-place rule, as on whole arrays; a given value is
                # never written, so the first layer has a buffer of its own
                if not fresh:
                    value = np.empty(x.shape)
                fresh = True
                ops.append((layer.apply, value, tiles[key], kept))
            if gathered:
                first, scratch = ops[0][1], np.empty((rows, x.shape[1]))
            for lo in range(0, x.shape[0], rows):
                hi = min(lo + rows, x.shape[0])
                if hi - lo < rows:  # the last block
                    ops = [(apply, out, [tile[:hi - lo] for tile in tiled],
                            kept) for apply, out, tiled, kept in ops]
                block = (x.gather(lo, hi, first[lo:hi], scratch[:hi - lo])
                         if gathered else x[lo:hi])
                if keep[0] and not all_finite(block):
                    raise _Rerun
                for apply, out, tiled, kept in ops:
                    block = apply(block, out[lo:hi], tiled)
                    if kept and not all_finite(block):
                        raise _Rerun
        return value

    def backward(self) -> None:
        """Reverse-mode d(loss)/d(parameter) from the loss of the last
        ``forward``: each parameter ends with a gradient, all zeros if
        nothing flowed into it. A weight that carries a row selection and
        feeds ``IndexedDense`` ends with a ``CompactGrad``, the factors of
        its compact gradient: ``np.asarray`` forms it.
        """
        if self._loss is None:
            raise EngineError("backward called before forward (an inference "
                              "pass does not count)")
        params = self.parameters()
        self.zero_grad()
        first = next((i for i, layer in enumerate(self.layers)
                      if layer.params), len(self.layers))
        grad = np.ones_like(self._loss)
        for i in range(len(self.layers) - 1, first - 1, -1):
            grad = self.layers[i].backprop(grad, i > first)
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.array)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- state -------------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params]

    def live_state(self) -> dict[str, np.ndarray]:
        """The arrays the graph holds, uncopied: every trainable parameter
        plus batch-norm running statistics. Read them, do not write them."""
        state = {p.name: p.array for p in self.parameters()}
        for layer in self.layers:
            if isinstance(layer, BatchNorm):
                state[f"{layer.name}.running_mean"] = layer.running_mean
                state[f"{layer.name}.running_var"] = layer.running_var
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
    order: each such ``Parameter.array`` is rebound to a view of its
    span, and its moments ``state.m[name]``/``state.v[name]`` are views of
    ``flat_m``/``flat_v`` with the same layout. ``step``
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
                p.array = theta
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
