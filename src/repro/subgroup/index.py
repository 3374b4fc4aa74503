"""The sorted-column index of a subgroup-discovery table.

:func:`column_index` sorts every column of a table once for the
lockstep PRIM peeler (:mod:`repro.subgroup._kernels`), which uses the
orders, tie keys and block numbers.  BestInterval's
:class:`~repro.subgroup._kernels.SortedDataset` needs the orders alone
and takes them from :func:`column_orders`.  Both sort each column
through :func:`_column_order`: a quicksort, and a stable sort again
only when the column holds a tie, so every order equals
``np.argsort(column, kind="stable")``: tied rows keep ascending row
order, which BestInterval's group sums need (PRIM's results do not
depend on the order within a tie).

Inside a warm scope the index of the pool REDS labelled is memoized in
:data:`INDEX_MEMO` under the name :func:`named_pool` gives it, so every
peel and beam search of one pool shares one sort.  Any other table is
sorted afresh: memoizing folds and training sets would crowd the pools
out of the memo.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from repro import warm

__all__ = [
    "ColumnIndex",
    "column_index",
    "column_orders",
    "named_pool",
    "INDEX_MEMO",
    "INDEX_MEMO_BYTES",
]

#: Largest block of the order-statistic index.  A step costs about
#: ``N / B`` prefix-sum terms plus 8 gathered blocks of ``B`` entries per
#: segment, so :func:`_block_rows` sizes blocks near ``sqrt(N / 16)``:
#: 64 rows at L = 10^5, 5 rows for a 400-row training set.
_BLOCK_ROWS = 64

#: Byte cap of :data:`INDEX_MEMO`, sized by the measured need of a
#: warm stream over two M=8 datasets: the index of each one's L=10^5
#: PRIM pool (8.0 MB: int32 orders and keys, uint16 blocks) and of its
#: 10^4-row BestInterval pool (0.80 MB), 17,607,296 bytes in all.
INDEX_MEMO_BYTES = 17 * 2**20

#: ``((name, shape), block rows)`` -> the read-only :class:`ColumnIndex`
#: of the pool :func:`named_pool` names, filled only inside a warm
#: scope.  Counters: ``hits``, ``misses`` and the ``weight`` in bytes
#: held.
INDEX_MEMO = warm.WarmCache(cap=INDEX_MEMO_BYTES,
                            weight=lambda index: index.nbytes)

#: ``(pool, name)`` inside :func:`named_pool`, else ``None``.
_NAMED: contextvars.ContextVar = contextvars.ContextVar("_NAMED",
                                                        default=None)


@contextlib.contextmanager
def named_pool(x: np.ndarray, name):
    """Within the block, :func:`column_index` memoizes the index of the
    read-only pool ``x`` under ``name`` and its shape.

    ``name`` must name the content of ``x``: two pools with equal names
    and shapes must be equal.  REDS names a pool it drew by the draw
    (the generator state and sampler) and a caller's pool by the
    content key it already took for the label memo.  ``x`` itself is
    recognised as the same object.  Every other table, and ``x`` when
    ``name`` is ``None`` or ``x`` is writeable, is not memoized.
    """
    token = _NAMED.set(None if name is None else (x, name))
    try:
        yield
    finally:
        _NAMED.reset(token)


def _block_rows(n_base: int) -> int:
    """Rows per block of the column orders of an ``n_base``-row table."""
    return max(1, min(_BLOCK_ROWS, math.isqrt(n_base // 16)))


@dataclass(frozen=True)
class ColumnIndex:
    """The static order-statistic index of one table (:func:`column_index`).

    A column's order is cut into ``n_blocks`` blocks of ``block``
    positions, the last padded with the sentinel row ``N`` (never in a
    box).  ``orders[j]`` lists the rows of ``x`` in ascending order of
    column ``j``, tied rows in ascending row order; ``keys[j, p]`` is the dense rank of the value at
    position ``p`` plus ``j * (N + 1)`` (padding: ``N`` plus the same
    offset), so ``keys.ravel()`` ascends and one ``searchsorted`` finds
    any position's tie run; ``blocks[i, j]`` is the block of row ``i``
    in column ``j`` plus ``j * n_blocks`` (row-major, so a row's blocks
    in every column are one gather, and its slots in a one-run batch's
    flat block tables).
    """

    block: int
    orders: np.ndarray   # (M, n_blocks * block) int32 rows
    keys: np.ndarray     # (M, n_blocks * block) int32 tie keys
    blocks: np.ndarray   # (N, M) uint16 offset block of each row

    @property
    def n_blocks(self) -> int:
        return self.orders.shape[1] // self.block

    @property
    def nbytes(self) -> int:
        return self.orders.nbytes + self.keys.nbytes + self.blocks.nbytes


def _column_order(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of one column and where its sorted values step.

    Returns ``(order, steps)``: ``order`` equals
    ``np.argsort(column, kind="stable")`` and ``steps[p]`` says whether
    the sorted values at positions ``p`` and ``p + 1`` differ.
    """
    order = np.argsort(column)
    values = column[order]
    steps = values[1:] != values[:-1]
    if not steps.all():
        # A tie (``-0.0 == 0.0`` counts): distinct values have one
        # order only, so only a tied column needs the stable sort.
        order = np.argsort(column, kind="stable")
    return order, steps


def _build_column_index(x: np.ndarray, block: int) -> ColumnIndex:
    n_base, dim = x.shape
    n_blocks = n_base // block + 1
    width = n_blocks * block
    index_type = np.int32 if dim * (n_base + 1) < 2**31 else np.int64
    orders = np.full((dim, width), n_base, dtype=index_type)
    keys = np.full((dim, width), n_base, dtype=index_type)
    blocks = np.empty((n_base, dim), dtype=np.uint16
                      if dim * n_blocks <= 2**16 else np.uint32)
    block_of = np.arange(n_base) // block
    for j, column in enumerate(np.ascontiguousarray(x.T)):
        order, steps = _column_order(column)
        keys[j, :1] = 0
        np.cumsum(steps, out=keys[j, 1:n_base])
        orders[j, :n_base] = order
        keys[j] += j * (n_base + 1)
        blocks[order, j] = block_of + j * n_blocks
    for array in (orders, keys, blocks):
        array.flags.writeable = False
    return ColumnIndex(block, orders, keys, blocks)


def column_index(x: np.ndarray) -> ColumnIndex:
    """The static index every lockstep batch over ``x`` starts from.

    A :class:`ColumnIndex`: the column orders of ``x`` padded to whole
    blocks, their tie keys and every row's block number in every
    column, all read-only, contiguous and a pure function of ``x``
    (and :data:`_BLOCK_ROWS`).  Inside a warm scope the pool that
    :func:`named_pool` names is memoized in :data:`INDEX_MEMO` under
    that name, so the pool a seed's REDS methods all search is sorted
    once; any other ``x`` is built afresh.
    """
    block = _block_rows(len(x))
    name = _memo_name(x)
    if name is None:
        return _build_column_index(x, block)
    return INDEX_MEMO.get_or_create(((name, x.shape), block),
                                    lambda: _build_column_index(x, block))


def column_orders(x: np.ndarray) -> np.ndarray:
    """The stable column orders of ``x``, an ``(M, N)`` ``intp`` array
    whose row ``j`` equals ``np.argsort(x[:, j], kind="stable")``.

    The pool :func:`named_pool` names reads them from its memoized
    :func:`column_index`; any other ``x`` sorts its orders alone,
    without the tie keys and block numbers only the PRIM peeler reads.
    """
    if _memo_name(x) is not None:
        return column_index(x).orders[:, :len(x)].astype(np.intp)
    orders = np.empty((x.shape[1], len(x)), dtype=np.intp)
    for j, column in enumerate(np.ascontiguousarray(x.T)):
        orders[j] = _column_order(column)[0]
    return orders


def _memo_name(x: np.ndarray):
    """The name :func:`column_index` memoizes the index of ``x`` under,
    or ``None`` when it builds it afresh."""
    named = _NAMED.get()
    if (not warm.active() or named is None or named[0] is not x
            or x.flags.writeable):
        return None
    return named[1]
