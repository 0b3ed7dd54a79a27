"""Sparse matrix-vector multiply kernels for CSR, VBR, and 1D-VBR.

The blocked kernel runs from a multiply plan that the first multiply of
a container builds and caches on it (containers are immutable): the
first multiply pays for the plan and every later one reuses it. The plan
groups the stored blocks by shape (u, w) and holds, per shape, the
blocks' values copied once into shape-grouped order as a read-only
(G, w, u) array and the x gather indices (G, w), plus the y row of every
product. Its memory is one more copy of ``val`` plus those int64 index
arrays: 4.1 MB on a 20000-row 1D-VBR matrix with 226,000 stored values,
whose plan takes about five cached multiplies to build.

A multiply loops in Python only over the distinct shapes: one gather of
x per shape, loading each input-vector element once per block column,
and one batched product; then one scatter-add of every product into y.
A block's rows sum its columns left to right; the block sums of a row go
in ascending (u, w), storage order within a shape, are summed from zero
and added to y once. 1D-VBR is VBR with a trivial column partition, so
``spmv_1dvbr`` is the same kernel. Pass a dict as ``counter`` to tally
the multiply-add count actually executed (key ``"madds"``).
"""

import numpy as np

from .sparse import _frozen

__all__ = ["spmv_csr", "spmv_vbr", "spmv_1dvbr"]


def spmv_csr(A, x):
    """Reference y = A @ x with row-major accumulation order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({A.n},)")
    row_of = np.repeat(np.arange(A.m, dtype=np.int64), np.diff(A.pos))
    return np.bincount(row_of, weights=A.val * x[A.idx], minlength=A.m)


def _build_plan(B):
    """Shape groups of B as ((values, x columns), ...) plus the y row of every product.

    Groups go in ascending (u, w), blocks in storage order within a group.
    """
    block_row = np.repeat(np.arange(len(B.pos) - 1), np.diff(B.pos))
    u = np.diff(B.spl_rows)[block_row]
    w = np.diff(B.spl_cols)[B.idx]
    value_start = np.cumsum(u * w) - u * w
    first_row = B.spl_rows[block_row]
    first_col = B.spl_cols[B.idx]
    order = np.lexsort((w, u))  # by shape, storage order within a shape
    u, w = u[order], w[order]
    lo = np.flatnonzero(np.diff(u, prepend=0) | np.diff(w, prepend=0))
    groups, rows = [], [np.zeros(0, dtype=np.int64)]
    for a, b in zip(lo.tolist(), [*lo[1:].tolist(), len(order)]):
        bu, bw = int(u[a]), int(w[a])
        sel = order[a:b]
        # column-major blocks: column j of a block is u consecutive values
        blocks = B.val[value_start[sel, None] + np.arange(bu * bw)].reshape(-1, bw, bu)
        groups.append((_frozen(blocks, np.float64),
                       _frozen(first_col[sel, None] + np.arange(bw), np.int64)))
        rows.append((first_row[sel, None] + np.arange(bu)).ravel())
    return tuple(groups), _frozen(np.concatenate(rows), np.int64)


def spmv_vbr(y, B, x, counter=None):
    """Add B @ x into y in place and return y; B is VBR or 1D-VBR."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    if y.shape != (B.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({B.m},)")
    if B._plan is None:
        B._plan = _build_plan(B)
    groups, rows = B._plan
    products = np.empty(len(rows))
    at = 0
    for blocks, cols in groups:
        g, _, u = blocks.shape
        np.einsum("gwu,gw->gu", blocks, x[cols], out=products[at:at + g * u].reshape(g, u))
        at += g * u
    y += np.bincount(rows, weights=products, minlength=B.m)
    if counter is not None:
        counter["madds"] = counter.get("madds", 0) + len(B.val)
    return y


spmv_1dvbr = spmv_vbr
