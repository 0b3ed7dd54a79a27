"""Sparse matrix-vector multiply kernels for CSR, VBR, and 1D-VBR.

The blocked kernel runs from a blocked-ELL multiply plan (the BELLPACK
layout of Choi, Singh and Vuduc, with SELL-C-sigma-style padding) that
the first multiply of a container builds and caches on it (containers
are immutable): the first multiply pays for the plan and every later one
reuses it. VBR stores each block row's blocks one after another, column
by column, so block row k of height u with c stored columns is already a
dense u x c matrix. The plan groups the non-empty block rows by height u
and a padded column count c_pad, and holds, per group of G block rows,
their values as a read-only (G, u, c_pad) array, the x index of every
column as (G, c_pad) and the y rows: ``slice(lo, hi)`` when they are lo,
lo + 1, ..., hi - 1 in plan order, else their (G, u) array. The values
are copied once, but for a group of 1 x c blocks already where the plan
puts them, whose values are a view of ``B.val``. Pad columns hold 0.0
and read a zero slot appended to a copy of x, so they add exactly +0.0
whatever x holds.

Each group costs one Python-level call per multiply and each pad column
one more x gather and u multiply-adds, so each height's padded counts
are chosen by the paper's own 1-D problem on a few dozen points:
``_pad_classes`` splits the height's sorted distinct stored counts into
contiguous classes, pads every block row of a class to the class's
largest count c, and minimises the sum over classes of ``_GROUP + c *
(block rows in the class)``.
Heights with a single count skip the DP, so a calibration grid, whose
block rows all store the same number of columns, is one group with no
pad, and calibration times exactly the values the model prices. On the
seed-1234 benchmark containers this replaced padding every count to a
multiple of 4 as follows (groups, padded / stored values, change of the
multiply in interleaved medians, 2 vCPUs):

    blocks-2d, VBR                  39, 1.07 -> 12, 1.21    -23 to -33 %
    scatter-heuristic, both kernels  1, 1.20 ->  1, 1.00     -8 to -16 %
    calibrate-fit, VBR               1, 1.11 ->  1, 1.00     -4 to -6 %
    rowruns-1d, 1D-VBR              10, 1.11 -> 10, 1.08    within noise

Writing every group's products into one buffer and adding that to y
with a single ``y[rows] +=`` moved the multiply by -2.4 to +2.1 % on the
same containers, which is noise, so each group adds into its own rows.
Building the plan loops in Python only over the groups and over the
distinct counts of heights that have several. On the 20000-row rowruns
benchmark matrix (225,891 stored values in 10 groups) the plan holds
2.65 MB (2.73 MB under the pad to a multiple of 4), one padded copy of
the values plus int64 x indices and y rows, and builds in about 3-5 ms,
the time of some 10 of its 0.34 ms multiplies (min of 20 and 200 runs,
2 vCPUs). On scatter-heuristic's two 1 x 1 containers (100,000 values)
each plan holds no array of its own, and on calibrate-fit's aligned
3 x 3 container 0.46 MB. The build moves each block row's values and x
columns into its group's slots by one scatter each, and skips a scatter
that would move nothing: a container of one block-row height and one
stored column count with no empty block row, such as every calibration
grid, has its values and x columns in place already. That halves the
build of a 256 KiB calibration grid of 3 x 3 or 8 x 8 blocks (0.26-0.49
to 0.13-0.25 ms, min of 70 runs, 2 vCPUs).
Under a trivial column partition, as in every 1D-VBR container and
calibration's w = 1 grids, every stored block is one column wide, so the
x indices are ``idx`` itself and are read from it rather than rebuilt
from block widths.

A multiply loops in Python only over the groups: one gather of x and one
batched product per group, added straight into that group's rows of y,
in place through ``y[lo:hi]`` for a slice and by fancy index otherwise.
Every row of y belongs to exactly one block row, so there is no
scatter-add: a row's products over its stored columns and its pad are
summed by one ``np.einsum`` reduction, in an order fixed by the plan, so
repeated calls are bit-identical, and added to y once. The slice adds
the same products in the same order as the fancy-index update, so y is
the same to the bit. Every group reads the copy of x, so
``spmv_vbr(v, B, v)`` reads the old v even after an earlier group has
written to it. 1D-VBR is VBR with a trivial column partition, so
``spmv_1dvbr`` is the same kernel. Pass a dict as ``counter`` to tally
multiply-adds (key ``"madds"``); it counts the stored values,
``len(B.val)``, not the pad.
"""

import itertools

import numpy as np

from .sparse import _frozen, _offsets

__all__ = ["spmv_csr", "spmv_vbr", "spmv_1dvbr"]

# What one plan group costs per multiply, in padded block-row columns; the
# class DP trades groups against pad by it. Timing one group's step (x
# gather, einsum, y update) for 1-1000 block rows of 4-48 columns on a
# 2-vCPU Xeon gave 4-10 us per group and 1.3-1.4, 2.4-2.6 and 4.0-5.1 ns
# per padded column at u = 1, 3 and 6: ratios of 1,900-4,300, lower for
# taller blocks. Another 2-vCPU measurement gave 5 us and 3.4-4.4 ns at
# every u, about 1,250. On the seed-1234 benchmark containers values from
# 600 to 5,000 gave multiplies equal within noise (blocks-2d 23-33 % faster
# than with a pad to 4 at each); this one keeps rowruns-1d at 10 groups and
# takes blocks-2d from 39 groups to 12.
_GROUP = 1250


def _pad_classes(counts, sizes):
    """Padded column count for each of one height's stored column counts.

    ``counts`` are the distinct counts in ascending order and ``sizes``
    the number of block rows storing each. A class is a contiguous run
    i..j of counts padded to ``counts[j]`` and costs ``_GROUP +
    counts[j] * (sizes[i] + ... + sizes[j])``; an O(k^2) DP over the k
    counts returns a classing of least total cost, the larger class on
    ties.
    """
    prefix = [0, *itertools.accumulate(sizes)]
    best, start = [0], [0]
    for j, c in enumerate(counts, start=1):
        cost, i = min((best[i] + c * (prefix[j] - prefix[i]), i) for i in range(j))
        best.append(cost + _GROUP)
        start.append(i)
    padded, j = list(counts), len(counts)
    while j:
        i = start[j]
        padded[i:j] = [counts[j - 1]] * (j - i)
        j = i
    return padded


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


def _starts(*keys):
    """Indices at which any of the equal-length ``keys`` changes value, 0 first."""
    change = np.zeros(len(keys[0]), dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _shifted(src, lengths, shift, size, fill):
    """``src`` cut into runs of ``lengths``, each run moved ``shift`` places
    along an array of ``size`` slots that otherwise hold ``fill``.

    A layout that moves no run and adds no slot is ``src`` itself: the
    block rows of a container with one height, one stored column count and
    no empty block row already sit where the plan puts them.
    """
    if size == len(src) and not shift.any():
        return src
    out = np.full(size, fill, dtype=src.dtype)
    out[np.arange(len(src)) + np.repeat(shift, lengths)] = src
    return out


def _build_plan(B):
    """Blocked-ELL groups of B as ((values, x columns, y rows), ...).

    Groups go in ascending (u, c_pad), block rows by stored column count and
    then in storage order within a group. A group whose y rows are lo, lo +
    1, ..., hi - 1 in plan order targets ``slice(lo, hi)``, any other its
    (G, u) row array. Values are copied into (G, u, c_pad) order, but a
    u = 1 group whose values ``_shifted`` left in place keeps a read-only
    view of ``B.val``.
    """
    heights = np.diff(B.spl_rows)
    # first[q]: the stored columns before block q; column: the x index of
    # every stored column, block after block
    if len(B.spl_cols) == B.n + 1:  # trivial columns: block q is column idx[q]
        first = np.arange(len(B.idx) + 1, dtype=np.int64)
        column = B.idx
    else:
        widths = np.diff(B.spl_cols)[B.idx]
        first = _offsets(widths)
        column = np.arange(first[-1]) + np.repeat(B.spl_cols[B.idx] - first[:-1], widths)
    stored = np.diff(first[B.pos])  # stored columns of each block row
    kept = np.flatnonzero(stored)
    order = kept[np.lexsort((stored[kept], heights[kept]))]
    u, c = heights[order], stored[order]
    runs = _starts(u, c)  # runs of block rows of equal height and stored count
    first_runs = _starts(u[runs])  # the first run of each height
    if len(first_runs) < len(runs):  # some height has several counts: pad them by class
        sizes = np.diff(runs, append=len(order)).tolist()
        counts = c[runs].tolist()
        for a, b in zip(first_runs.tolist(), [*first_runs[1:].tolist(), len(runs)]):
            if b - a > 1:
                counts[a:b] = _pad_classes(counts[a:b], sizes[a:b])
        c = np.repeat(counts, sizes)
        runs = _starts(u, c)  # now runs of equal height and padded count
    at_val, at_col = _offsets(u * c), _offsets(c)
    # block row order[g] fills by_column[at_val[g]:at_val[g + 1]], column by
    # column as in val, and cols[at_col[g]:at_col[g + 1]], pad slots last
    shift = np.zeros(len(heights), dtype=np.int64)
    shift[order] = at_val[:-1] - B.ofs[order]
    by_column = _shifted(B.val, np.diff(B.ofs), shift, int(at_val[-1]), 0.0)
    shift[order] = at_col[:-1] - first[B.pos[order]]
    # pad slots read x[n] = 0.0
    cols = _frozen(_shifted(column, stored, shift, int(at_col[-1]), B.n), np.int64)
    follows = np.diff(order) == 1  # block row order[g + 1] is order[g] + 1
    lo = runs.tolist()
    groups = []
    for a, b in zip(lo, [*lo[1:], len(order)]):
        g, gu, gc = b - a, int(u[a]), int(c[a])
        values = by_column[at_val[a]:at_val[b]].reshape(g, gc, gu).transpose(0, 2, 1)
        if by_column is not B.val:  # hold no view of the whole laid-out copy
            values = values.copy()
        if follows[a:b - 1].all():
            rows = slice(int(B.spl_rows[order[a]]), int(B.spl_rows[order[b - 1] + 1]))
        else:
            rows = _frozen(B.spl_rows[order[a:b], None] + np.arange(gu), np.int64)
        groups.append((_frozen(values, np.float64), cols[at_col[a]:at_col[b]].reshape(g, gc), rows))
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
        products = np.einsum("guc,gc->gu", values, x_pad[cols])
        y[rows] += products.ravel() if isinstance(rows, slice) else products
    if counter is not None:
        counter["madds"] = counter.get("madds", 0) + len(B.val)
    return y


spmv_1dvbr = spmv_vbr
