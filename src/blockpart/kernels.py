"""Sparse matrix-vector multiply kernels for CSR, VBR, and 1D-VBR.

The blocked kernel runs from a blocked-ELL multiply plan (the BELLPACK
layout of Choi, Singh and Vuduc, with SELL-C-sigma-style padding) that
the first multiply of a container builds and caches on it (containers
are immutable): the first multiply pays for the plan and every later one
reuses it. VBR stores each block row's blocks one after another, column
by column, so block row k of height u with c stored columns is already a
dense u x c matrix. The plan groups the non-empty block rows by (u, c
rounded up to a multiple of ``_PAD``) and holds, per group of G block
rows, their values copied once into a read-only (G, u, c_pad) array, the
x index of every stored column as (G, c_pad) and the y rows as (G, u).
Pad columns hold 0.0 and read a zero slot appended to a copy of x, so
they add exactly +0.0 whatever x holds. Padding to 4 rather than to the
exact count trades a little fill for fewer groups, each of which costs
one Python-level call per multiply. Building the plan loops in Python
only over the groups. On the 20000-row rowruns benchmark matrix (225,464
stored values in 10 groups) the plan holds 2.7 MB, one padded copy of
the values plus int64 x indices and y rows, and builds in about 6 ms,
the time of some 18 of its 0.34 ms multiplies (min of 20 and 200 runs,
2 vCPUs).

A multiply loops in Python only over the groups: one gather of x and one
batched product per group, added straight into that group's rows of y.
Every row of y belongs to exactly one block row, so there is no
scatter-add: a row's products over its stored columns and its pad are
summed by one ``np.einsum`` reduction, in an order fixed by the plan, so
repeated calls are bit-identical, and added to y once. 1D-VBR is
VBR with a trivial column partition, so ``spmv_1dvbr`` is the same
kernel. Pass a dict as ``counter`` to tally multiply-adds (key
``"madds"``); it counts the stored values, ``len(B.val)``, not the pad.
"""

import numpy as np

from .sparse import _frozen, _offsets

__all__ = ["spmv_csr", "spmv_vbr", "spmv_1dvbr"]

_PAD = 4  # a plan group's stored column count is a multiple of this


def spmv_csr(A, x):
    """Reference y = A @ x.

    Each non-empty row sums its products in column order as one
    ``np.add.reduceat`` segment, which numpy may add pairwise, so a row
    agrees with a left-to-right sum within rounding. Empty rows are 0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({A.n},)")
    y = np.zeros(A.m)
    nonempty = np.flatnonzero(np.diff(A.pos))
    if len(nonempty):
        y[nonempty] = np.add.reduceat(A.val * x[A.idx], A.pos[nonempty])
    return y


def _build_plan(B):
    """Blocked-ELL groups of B as ((values, x columns, y rows), ...).

    Groups go in ascending (u, c_pad), block rows in storage order within
    a group.
    """
    heights = np.diff(B.spl_rows)
    widths = np.diff(B.spl_cols)[B.idx]
    first = _offsets(widths)  # stored columns before each block
    stored = np.diff(first[B.pos])  # stored columns of each block row
    padded = -(-stored // _PAD) * _PAD
    kept = np.flatnonzero(stored)
    order = kept[np.lexsort((padded[kept], heights[kept]))]
    u, c = heights[order], padded[order]
    at_val, at_col = _offsets(u * c), _offsets(c)
    # block row order[g] fills by_column[at_val[g]:at_val[g + 1]], column by
    # column as in val, and cols[at_col[g]:at_col[g + 1]], pad slots last
    shift = np.zeros(len(heights), dtype=np.int64)
    shift[order] = at_val[:-1] - B.ofs[order]
    by_column = np.zeros(int(at_val[-1]))
    by_column[np.arange(len(B.val)) + np.repeat(shift, np.diff(B.ofs))] = B.val
    shift[order] = at_col[:-1] - first[B.pos[order]]
    column = np.arange(first[-1])  # stored columns, block after block
    cols = np.full(int(at_col[-1]), B.n, dtype=np.int64)  # pad slots read x[n] = 0.0
    cols[column + np.repeat(shift, stored)] = (
        column + np.repeat(B.spl_cols[B.idx] - first[:-1], widths))
    cols = _frozen(cols, np.int64)
    lo = np.flatnonzero(np.diff(u, prepend=0) | np.diff(c, prepend=0)).tolist()
    groups = []
    for a, b in zip(lo, [*lo[1:], len(order)]):
        g, gu, gc = b - a, int(u[a]), int(c[a])
        values = by_column[at_val[a]:at_val[b]].reshape(g, gc, gu).transpose(0, 2, 1).copy()
        groups.append((_frozen(values, np.float64),
                       cols[at_col[a]:at_col[b]].reshape(g, gc),
                       _frozen(B.spl_rows[order[a:b], None] + np.arange(gu), np.int64)))
    return tuple(groups)


def spmv_vbr(y, B, x, counter=None):
    """Add B @ x into y in place and return y; B is VBR or 1D-VBR."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    if y.shape != (B.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({B.m},)")
    if B._plan is None:
        B._plan = _build_plan(B)
    x_pad = np.append(x, 0.0)  # pad slots read x_pad[n]
    for values, cols, rows in B._plan:
        y[rows] += np.einsum("guc,gc->gu", values, x_pad[cols])
    if counter is not None:
        counter["madds"] = counter.get("madds", 0) + len(B.val)
    return y


spmv_1dvbr = spmv_vbr
