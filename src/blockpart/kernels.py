"""Sparse matrix-vector multiply kernels for CSR, VBR, and 1D-VBR.

The blocked kernel groups the stored blocks by shape (u, w); Python loops
only over the distinct shapes. Each group is one gather of its blocks'
values, one gather of x that loads each input-vector element once per
block column, one batched product and one scatter-add into y. A block's
rows sum its columns left to right, a group's blocks are added to y in
storage order, and groups go in ascending (u, w). 1D-VBR is VBR with a
trivial column partition, so ``spmv_1dvbr`` is the same kernel. Pass a
dict as ``counter`` to tally the multiply-add count actually executed
(key ``"madds"``).
"""

import numpy as np

__all__ = ["spmv_csr", "spmv_vbr", "spmv_1dvbr"]


def spmv_csr(A, x):
    """Reference y = A @ x with row-major accumulation order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({A.n},)")
    row_of = np.repeat(np.arange(A.m, dtype=np.int64), np.diff(A.pos))
    return np.bincount(row_of, weights=A.val * x[A.idx], minlength=A.m)


def spmv_vbr(y, B, x, counter=None):
    """Add B @ x into y in place and return y; B is VBR or 1D-VBR."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    if y.shape != (B.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({B.m},)")
    block_row = np.repeat(np.arange(len(B.pos) - 1), np.diff(B.pos))
    u = np.diff(B.spl_rows)[block_row]
    w = np.diff(B.spl_cols)[B.idx]
    value_start = np.cumsum(u * w) - u * w
    first_row = B.spl_rows[block_row]
    first_col = B.spl_cols[B.idx]
    order = np.lexsort((w, u))  # by shape, storage order within a shape
    u, w = u[order], w[order]
    lo = np.flatnonzero(np.diff(u, prepend=0) | np.diff(w, prepend=0))
    for a, b in zip(lo.tolist(), [*lo[1:].tolist(), len(order)]):
        bu, bw = int(u[a]), int(w[a])
        sel = order[a:b]
        # column-major blocks: column j of a block is u consecutive values
        blocks = B.val[value_start[sel, None] + np.arange(bu * bw)].reshape(-1, bw, bu)
        xs = x[first_col[sel, None] + np.arange(bw)]
        rows = first_row[sel, None] + np.arange(bu)
        y += np.bincount(rows.ravel(), weights=np.matmul(xs[:, None, :], blocks).ravel(),
                         minlength=B.m)
    if counter is not None:
        counter["madds"] = counter.get("madds", 0) + len(B.val)
    return y


spmv_1dvbr = spmv_vbr
