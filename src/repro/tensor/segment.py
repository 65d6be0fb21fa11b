"""Gather / scatter / segment reductions — the message-passing kernels.

PyTorch Geometric implements GNN message passing with ``torch.index_select``
and ``scatter_*``; these functions are the numpy/autodiff equivalents. All of
them are differentiable with respect to the value tensor (never with respect
to the integer index arrays).

Conventions
-----------
* ``index`` arrays are 1-D ``int64`` ndarrays.
* ``num_segments`` must be passed explicitly (it may exceed ``index.max()+1``
  when a batch contains empty graphs).

Kernel strategy
---------------
Two kernels, chosen by what is routed:

* **Edge routing** (the GIN / GCN / SAGE neighbourhood sum) runs as one
  sparse matrix product. :class:`Propagation` holds the edge set as a
  scipy CSR matrix ``A[dst, src] = weight`` and :func:`propagate`
  computes ``A @ x`` forward and ``A.T @ grad`` backward — no ``(E, d)``
  message matrix and no flattened bin index per call. Each CSR row keeps
  its edges in their original order (stable sort), so every row adds the
  same terms in the same order as the ``gather`` → ``np.bincount`` pair
  it replaces, and the results are bit-identical.
* **1-D scatters and pooling** (attention logits, per-edge scalars,
  node → graph readout, loss gathers) stay on ``np.bincount`` over a
  flattened ``(row, column)`` index rather than ``np.add.at``. Both
  accumulate bins in input order, so results are bit-identical, but
  ``bincount`` avoids ``add.at``'s generic buffered-ufunc path (~6×
  faster at message-passing sizes on a 2-core x86-64 VM). A
  :class:`ScatterPlan` caches the flattened index and segment counts for
  one ``(index, num_segments)`` routing. These routings are too cheap,
  or rebuilt too often for single graphs, to repay building a sparse
  matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, as_tensor

__all__ = [
    "ScatterPlan",
    "Propagation",
    "gather",
    "propagate",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "segment_count",
]


def _check_index(index: np.ndarray) -> np.ndarray:
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError(f"index must be 1-D, got shape {index.shape}")
    return index.astype(np.int64, copy=False)


def _bincount_rows(flat: np.ndarray, values: np.ndarray,
                   length: int) -> np.ndarray:
    out = np.bincount(flat, weights=values.reshape(-1), minlength=length)
    if out.shape[0] != length:
        raise IndexError("segment index out of range for num_segments")
    return out


class ScatterPlan:
    """Reusable scatter-add recipe for one (index, num_segments) routing.

    Precomputes (lazily, per feature width) the flattened bin index that
    turns an N-D row scatter into a single 1-D ``np.bincount``, and caches
    segment counts. Build one per edge direction on a batch and thread it
    through :func:`gather` / :func:`segment_sum` / :func:`segment_softmax`
    — forward and backward passes then skip all index arithmetic.
    """

    __slots__ = ("index", "num_segments", "_flat", "_counts")

    def __init__(self, index: np.ndarray, num_segments: int):
        self.index = _check_index(index)
        self.num_segments = int(num_segments)
        self._flat: dict[int, np.ndarray] = {}
        self._counts: np.ndarray | None = None

    def flat_index(self, width: int) -> np.ndarray:
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.index[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            self._flat[width] = flat
        return flat

    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = np.bincount(
                self.index, minlength=self.num_segments).astype(np.float64)
        return self._counts

    def scatter_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` rows into ``num_segments`` bins (fresh float64)."""
        if values.ndim == 1:
            return _bincount_rows(self.index, values, self.num_segments)
        width = int(np.prod(values.shape[1:]))
        out = _bincount_rows(self.flat_index(width), values,
                             self.num_segments * width)
        return out.reshape((self.num_segments,) + values.shape[1:])


def _routing_csr(rows: np.ndarray, cols: np.ndarray,
                 weight: np.ndarray | None, n: int) -> sp.csr_array:
    """``(n, n)`` CSR with one entry per edge, rows kept in edge order."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.ones(len(rows)) if weight is None else weight[order]
    return sp.csr_array((data, cols[order], indptr), shape=(n, n))


class Propagation:
    """Fused gather → scatter-add over one edge set, as a sparse operator.

    :attr:`forward` is the ``(num_nodes, num_nodes)`` CSR matrix with
    ``A[dst[e], src[e]] = weight[e]`` (1.0 when ``weight`` is None), one
    stored entry per edge: duplicate edges stay separate entries. Rows are
    built with a stable sort on ``dst``, so each row holds its edges in
    their original order and ``A @ x`` adds exactly the terms, in exactly
    the order, of ``segment_sum(gather(x, src) * weight, dst)``. The
    results are bit-identical on scipy builds that do not contract the
    multiply-add into an FMA (with unit weights they are identical even
    then). :meth:`transpose` — the backward operator, rows = ``src`` —
    is built the same way on first use and cached.
    """

    __slots__ = ("src", "dst", "weight", "num_nodes", "forward",
                 "_transpose", "_inverse_degree")

    def __init__(self, src: np.ndarray, dst: np.ndarray, num_nodes: int,
                 weight: np.ndarray | None = None):
        self.src = _check_index(src)
        self.dst = _check_index(dst)
        self.num_nodes = int(num_nodes)
        if len(self.src) != len(self.dst):
            raise ValueError(f"src and dst differ in length: "
                             f"{len(self.src)} vs {len(self.dst)}")
        for index in (self.src, self.dst):
            if index.size and (index.min() < 0
                               or index.max() >= self.num_nodes):
                raise IndexError("edge index out of range for num_nodes")
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != self.src.shape:
                raise ValueError(f"weight shape {weight.shape} does not "
                                 f"match {len(self.src)} edges")
        self.weight = weight
        self.forward = _routing_csr(self.dst, self.src, weight,
                                    self.num_nodes)
        self._transpose: sp.csr_array | None = None
        self._inverse_degree: np.ndarray | None = None

    def transpose(self) -> sp.csr_array:
        """``A.T`` as CSR with each row's edges in original order."""
        if self._transpose is None:
            self._transpose = _routing_csr(self.src, self.dst, self.weight,
                                           self.num_nodes)
        return self._transpose

    def inverse_degree(self) -> np.ndarray:
        """``1 / max(in-degree, 1)`` per node: scales a propagated sum to
        the ``segment_mean`` of the same messages, bit for bit."""
        if self._inverse_degree is None:
            counts = np.diff(self.forward.indptr).astype(np.float64)
            self._inverse_degree = 1.0 / np.maximum(counts, 1.0)
        return self._inverse_degree


def _scatter_sum(values: np.ndarray, index: np.ndarray,
                 num_segments: int) -> np.ndarray:
    """Plan-less scatter-add (flat index built on the fly)."""
    if values.ndim == 1:
        return _bincount_rows(index, values, num_segments)
    width = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * width + np.arange(width, dtype=np.int64)).ravel()
    out = _bincount_rows(flat, values, num_segments * width)
    return out.reshape((num_segments,) + values.shape[1:])


def gather(values: Tensor, index: np.ndarray, *,
           plan: ScatterPlan | None = None) -> Tensor:
    """Select rows ``values[index]``; gradient scatter-adds back.

    ``plan`` (if given) must route ``index`` into ``len(values)`` segments;
    the backward scatter then reuses its cached flat index.
    """
    values = as_tensor(values)
    if plan is not None:
        index = plan.index

        def backward(out: Tensor) -> None:
            values._accumulate(plan.scatter_sum(out.grad), own=True)
    else:
        index = _check_index(index)

        def backward(out: Tensor) -> None:
            values._accumulate(
                _scatter_sum(out.grad, index, len(values.data)), own=True)

    return Tensor._make(values.data[index], (values,), backward)


def segment_sum(values: Tensor, index: np.ndarray, num_segments: int, *,
                plan: ScatterPlan | None = None) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``index``.

    ``out[s] = sum_{i : index[i] == s} values[i]`` — the core aggregation of
    every GNN layer (messages → destination nodes) and of graph pooling
    (nodes → graphs).
    """
    values = as_tensor(values)
    if plan is not None:
        index = plan.index
        data = plan.scatter_sum(values.data)
    else:
        index = _check_index(index)
        data = _scatter_sum(values.data, index, num_segments)

    def backward(out: Tensor) -> None:
        values._accumulate(out.grad[index], own=True)

    return Tensor._make(data, (values,), backward)


def propagate(values: Tensor, op: Propagation) -> Tensor:
    """Route rows of ``values`` along ``op``'s edges and sum at each node.

    ``out[i] = sum_{e : dst[e] == i} weight[e] * values[src[e]]`` — the
    fused, bit-identical form of ``segment_sum(gather(values, src) *
    weight, dst, num_nodes)``. ``values`` is 1-D or 2-D with
    ``op.num_nodes`` rows.
    """
    values = as_tensor(values)

    def backward(out: Tensor) -> None:
        values._accumulate(op.transpose() @ out.grad, own=True)

    return Tensor._make(op.forward @ values.data, (values,), backward)


def segment_count(index: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of rows routed to each segment (plain ndarray)."""
    index = _check_index(index)
    return np.bincount(index, minlength=num_segments).astype(np.float64)


def segment_mean(values: Tensor, index: np.ndarray, num_segments: int, *,
                 plan: ScatterPlan | None = None) -> Tensor:
    """Mean-aggregate rows per segment; empty segments yield zeros."""
    totals = segment_sum(values, index, num_segments, plan=plan)
    counts = plan.counts() if plan is not None \
        else segment_count(index, num_segments)
    counts = np.maximum(counts, 1.0)
    return totals * Tensor(1.0 / counts).reshape(
        (num_segments,) + (1,) * (totals.ndim - 1))


def segment_max(values: Tensor, index: np.ndarray, num_segments: int,
                fill: float = 0.0, *,
                plan: ScatterPlan | None = None) -> Tensor:
    """Max-aggregate rows per segment.

    Segments that no row routes to are filled with ``fill``; a segment
    whose maximum is infinite keeps it. Gradient flows to the elements
    equal to their segment/feature maximum, split evenly among ties.
    """
    values = as_tensor(values)
    index = plan.index if plan is not None else _check_index(index)
    out_shape = (num_segments,) + values.shape[1:]
    data = np.full(out_shape, -np.inf, dtype=np.float64)
    np.maximum.at(data, index, values.data)
    counts = plan.counts() if plan is not None \
        else segment_count(index, num_segments)
    empty = (counts == 0).reshape((num_segments,) + (1,) * (values.ndim - 1))
    data = np.where(empty, fill, data)

    def backward(out: Tensor) -> None:
        # Every routed row belongs to a non-empty segment, so only its
        # value decides whether it is a winner.
        winners = values.data == data[index]
        winner_weights = winners.astype(np.float64)
        if plan is not None:
            tie_counts = plan.scatter_sum(winner_weights)
        else:
            tie_counts = _scatter_sum(winner_weights, index, num_segments)
        tie_counts = np.maximum(tie_counts, 1.0)
        grad = np.where(winners, out.grad[index] / tie_counts[index], 0.0)
        values._accumulate(grad, own=True)

    return Tensor._make(data, (values,), backward)


def segment_softmax(values: Tensor, index: np.ndarray, num_segments: int, *,
                    plan: ScatterPlan | None = None) -> Tensor:
    """Softmax over groups of rows sharing the same segment (GAT attention).

    Implemented as a composition of differentiable primitives, so it needs no
    bespoke vjp: ``softmax_i = exp(v_i - max_seg) / sum_seg exp(...)``. After
    the max shift every non-empty segment's denominator includes an exp(0)=1
    term, so no epsilon is needed and rows sum to exactly 1 (matching
    ``Tensor.softmax``).
    """
    values = as_tensor(values)
    index = plan.index if plan is not None else _check_index(index)
    seg_max = segment_max(values, index, num_segments, fill=0.0, plan=plan)
    shifted = values - gather(seg_max, index, plan=plan)
    exps = shifted.exp()
    denom = gather(segment_sum(exps, index, num_segments, plan=plan),
                   index, plan=plan)
    return exps / denom


# ----------------------------------------------------------------------
# Profiler op table (consumed by repro.obs.profiler)
# ----------------------------------------------------------------------
def _flops_scatter(args, kwargs, out) -> float:
    """One add/compare per scattered input row element."""
    values = args[0]
    size = values.data.size if isinstance(values, Tensor) else np.size(values)
    return float(size)


def _flops_propagate(args, kwargs, out) -> float:
    """One multiply-add per stored edge per output column."""
    width = out.data.size // max(len(out.data), 1)
    return float(args[1].forward.nnz * width)


def _flops_gather(args, kwargs, out) -> float:
    """Data movement only."""
    return 0.0


#: Module-level functions profiled by :class:`repro.obs.profiler.OpProfiler`.
#: The composite ops (``segment_mean``, ``segment_softmax``) are built from
#: the primitives below, so their *self* time in a profile excludes the
#: nested ``segment_sum``/``gather``/``exp`` calls, which report separately.
PROFILED_OPS = [
    ("gather", "gather", _flops_gather),
    ("segment_sum", "segment_sum", _flops_scatter),
    ("propagate", "propagate", _flops_propagate),
    ("segment_mean", "segment_mean", _flops_scatter),
    ("segment_max", "segment_max", _flops_scatter),
    ("segment_softmax", "segment_softmax", _flops_scatter),
]
