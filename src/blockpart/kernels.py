"""Sparse matrix-vector multiply kernels for CSR, VBR, and 1D-VBR.

The blocked kernel runs from a blocked-ELL multiply plan (the BELLPACK
layout of Choi, Singh and Vuduc, with SELL-C-sigma-style padding) that
every container builds once, read-only, in ``VbrMatrix._finish``, the
last step of every container, checked or built: conversion pays for the
plan and every multiply reuses it. VBR stores each block row's blocks one
after another, column by column, so block row k of height u with c stored
columns is already a dense u x c matrix. The plan groups the non-empty
block rows by height u and a padded column count c_pad, and holds, per
group of G block rows, their values as a read-only (G, u, c_pad) array,
the x index of every column as (G, c_pad) and the group's stretch of z,
the multiply's buffer of products. Pad columns hold 0.0 and read a zero
slot appended to a copy of x, so they add exactly +0.0 whatever x holds;
the plan's ``pad`` flag says whether any group has one.

A plan has one memory order: block rows fastest, the column-major layout
in which ELLPACK, SELL-C-sigma and BELLPACK keep their slabs. Every
group's stretch of z is its (G, u) products in Fortran order, and every
group holds Fortran-ordered copies of its values and x indices, except a
group of consecutive block rows with no pad and u = 1, which holds views
of ``B.val`` and the x indices in storage order: its (G, 1) stretch is
the same memory in either order, and the views cost the build no copy,
so scatter-heuristic's 1 x 1 plans hold no array of their own.
``np.einsum`` and the gather of x follow their operands' memory order,
so in a copied group the multiply's inner loop runs over the G block
rows, not over the 11 to 15 stored columns of one block row (as on
rowruns-1d), and the products are written in the order the values are
read: an einsum writing C order from Fortran-ordered values ran 2-3x
slower.

Each group costs one Python-level call per multiply and each pad column
one more x gather and u multiply-adds, so each height's padded counts
are chosen by the paper's own 1-D problem on a few dozen points:
``_pad_classes`` splits the height's sorted distinct stored counts into
contiguous classes, pads every block row of a class to the class's
largest count c, and minimises the sum over classes of ``_GROUP + c *
(block rows in the class)``. A height with a single count is one class
with no pad, and a container whose heights all have one count skips the
DP, so a calibration grid, whose block rows all store the same number of
columns, is one group with no pad, and calibration times exactly the
values the model prices.

Every group writes its products, through ``out=``, into its own stretch
of one buffer z per multiply, and the multiply ends with one ``y[target]
+= z[where]``, so y is read and written once per multiply however many
groups there are. ``where`` holds the z position of every row of a
non-empty block row, in row order, and ``target`` those rows. ``where``
is ``slice(None)`` when plan order is row order, as in 1 x 1 containers
and consecutive u = 1 groups, and ``target`` is ``slice(0, m)`` when
every block row stores a block. Otherwise ``target`` lists only the rows
of non-empty block rows, and a non-empty block row of height u stores at
least u values, so neither array is longer than ``len(B.val)``, however
tall an empty block row is. ``where`` is built by one scatter per group,
with no sort.

Building the plan loops in Python only over the groups and over the
distinct counts of heights that have several. On the 20000-row rowruns
benchmark matrix (225,891 stored values in 10 groups) the plan holds
2.65 MB, one padded copy of the values plus int64 x indices and
``where``, and builds in about 3-5 ms, the time of some 10 of its 0.34
ms multiplies (min of 20 and 200 runs, 2 vCPUs). On scatter-heuristic's
two 1 x 1 containers (100,000 values) each plan holds no array of its
own, and on calibrate-fit's aligned 3 x 3 container 0.46 MB. The build
reads each group straight off the container, by one rule. A group of
consecutive block rows with no pad takes its values and x indices as
slices: block rows k0..k1 - 1 are ``B.val[ofs[k0]:ofs[k1]]`` viewed as
(G, c, u) and transposed, and copied in Fortran order when u > 1. This
is the case for every group of a container with one height and one
stored count, such as every calibration grid. Any other group takes its
values and x indices by one gather each, whose (c_pad * u, G) index is a
single broadcast add of the slots 0 .. c_pad * u - 1 to each block row's
start; a pad slot reads past its block row and is then set to 0.0 and x
index n. The gather comes out in (c_pad, u, G) order, whose transpose is
the Fortran-ordered group. Under a trivial column partition, as in
every 1D-VBR container and calibration's w = 1 grids, every stored block
is one column wide, so the x indices are ``idx`` itself and are read
from it rather than rebuilt from block widths.

A multiply loops in Python only over the groups: one gather of x and one
batched product per group, written into its stretch of z, then one
gather of z added into y. Every row of y belongs to exactly one block
row, so there is no scatter-add: a row's products over its stored
columns and its pad are summed by one ``np.einsum`` reduction, in an
order fixed by the plan, so repeated calls are bit-identical, and added
to y once. x is copied with its zero slot only when ``pad`` is set;
otherwise each group gathers from x itself. y is written only after
every read of x, so ``spmv_vbr(v, B, v)`` reads the old v either way.
1D-VBR is VBR with a trivial column partition, so ``spmv_1dvbr`` is the
same kernel. Pass a dict as ``counter`` to tally multiply-adds (key
``"madds"``); it counts the stored values, ``len(B.val)``, not the pad.
"""

import itertools
from collections import namedtuple

import numpy as np

from .sparse import _offsets

__all__ = ["spmv_csr", "spmv_vbr", "spmv_1dvbr"]

# What one plan group costs per multiply, in padded block-row columns; the
# class DP trades groups against pad by it. Timing one group's step (x
# gather and einsum into its stretch of z) for 1-1000 block rows of 4-48
# columns on a 2-vCPU Xeon, in two runs of a fit weighted by relative
# error, gave 3-6 us per group and 1.6-2.7, 2.3-4.0 and 3.6-4.1 ns per
# padded column at u = 1, 3 and 6: ratios of 900-2,300, lower for taller
# blocks. On the seed-1234 benchmark containers values from 600 to 5,000
# gave multiplies equal within noise; this one gives rowruns-1d 10 groups
# and blocks-2d 12.
_GROUP = 1250

# groups: (values, x columns, stretch of z) per group, each stretch the
# group's (G, u) products in Fortran order; size: len(z); y[target] +=
# z[where] adds the products to their rows; pad: whether any x column is
# the zero slot n
_Plan = namedtuple("_Plan", "groups size where target pad")


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
    return change.nonzero()[0]


def _build_plan(B):
    """The blocked-ELL multiply plan of B (see the module docstring).

    Groups go in ascending (u, c_pad), block rows by stored column count and
    then in storage order within a group. A group of consecutive block rows
    with no pad takes its values and x columns as slices of ``B.val`` and
    the x indices, and keeps them as views when u = 1 and copies them in
    Fortran order otherwise. Any other group gathers each once, in Fortran
    order, then sets its pad slots to 0.0 and x index n. Every group's
    stretch of z runs block rows fastest, and ``where`` is filled by one
    scatter per group.
    """
    heights = B.spl_rows[1:] - B.spl_rows[:-1]
    # at: the stored columns before each block row; column: the x index of
    # every stored column, block after block
    if len(B.spl_cols) == B.n + 1:  # trivial columns: block q is column idx[q]
        at, column = B.pos, B.idx
    else:
        widths = (B.spl_cols[1:] - B.spl_cols[:-1])[B.idx]
        first = _offsets(widths)  # the stored columns before each block
        column = np.arange(first[-1]) + np.repeat(B.spl_cols[B.idx] - first[:-1], widths)
        at = first[B.pos]
    stored = at[1:] - at[:-1]
    kept = stored.nonzero()[0]
    order = kept[np.lexsort((stored[kept], heights[kept]))]
    u, c = heights[order], stored[order]
    runs = _starts(u, c)  # runs of block rows of equal height and stored count
    first_runs = _starts(u[runs])  # the first run of each height
    if len(first_runs) < len(runs):  # some height has several counts: pad them by class
        sizes = np.diff(runs, append=len(order)).tolist()
        counts = c[runs].tolist()
        for a, b in itertools.pairwise([*first_runs.tolist(), len(runs)]):
            counts[a:b] = _pad_classes(counts[a:b], sizes[a:b])
        c = np.repeat(counts, sizes)
        runs = _starts(u, c)  # now runs of equal height and padded count
    covers_all = len(kept) == len(heights)  # every row gets products
    # covered[k]: the rows of non-empty block rows before block row k
    covered = B.spl_rows if covers_all else _offsets(np.where(stored, heights, 0))
    where = np.empty(int(covered[-1]), dtype=np.int64)
    follows = order[1:] - order[:-1] == 1  # block row order[g + 1] is order[g] + 1
    groups, lo, pad = [], 0, False
    for a, b in itertools.pairwise([*runs.tolist(), len(order)]):
        k, gu, gc = order[a:b], int(u[a]), int(c[a])
        k0, k1 = int(k[0]), int(k[-1]) + 1  # the block rows are k0..k1 - 1 if they follow
        if follows[a:b - 1].all() and stored[k0] == gc:  # k0 stores fewest: no pad
            values = B.val[B.ofs[k0]:B.ofs[k1]].reshape(b - a, gc, gu).transpose(0, 2, 1)
            cols = column[at[k0]:at[k1]].reshape(b - a, gc)
            if gu > 1:  # copy with block rows fastest; a u = 1 stretch is (G, 1) either way
                values, cols = np.array(values, order="F"), np.array(cols, order="F")
            rows = slice(covered[k0], covered[k1])
        else:  # a pad slot gathers past its block row (clipped at the end), then is reset
            j = np.arange(gc)[:, None]
            slot = j >= stored[k]
            pad = pad or bool(slot.any())
            values = B.val.take(np.arange(gc * gu)[:, None] + B.ofs[k], mode="clip")
            values = values.reshape(gc, gu, b - a)
            np.copyto(values, 0.0, where=slot[:, None])
            cols = column.take(j + at[k], mode="clip")
            np.copyto(cols, B.n, where=slot)
            values, cols = values.T, cols.T
            rows = (covered[k][:, None] + np.arange(gu)).ravel()
        values.flags.writeable = cols.flags.writeable = False
        hi = lo + (b - a) * gu
        # the z position of each of the group's rows, in row order
        where[rows] = np.arange(lo, hi).reshape((b - a, gu), order="F").ravel()
        groups.append((values, cols, slice(lo, hi)))
        lo = hi
    if (where[1:] > where[:-1]).all():  # plan order is row order
        where = slice(None)
    else:
        where.flags.writeable = False
    if covers_all:
        target = slice(0, B.m)
    else:
        target = np.repeat(B.spl_rows[kept] - covered[kept], heights[kept]) + np.arange(lo)
        target.flags.writeable = False
    return _Plan(tuple(groups), lo, where, target, pad)


def spmv_vbr(y, B, x, counter=None):
    """Add B @ x into y in place and return y; B is VBR or 1D-VBR."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    if y.shape != (B.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({B.m},)")
    plan = B._plan
    if plan.pad:
        x = np.append(x, 0.0)  # pad slots read x[n]
    z = np.empty(plan.size)
    for values, cols, span in plan.groups:
        out = z[span].reshape(values.shape[:2], order="F")
        np.einsum("guc,gc->gu", values, x[cols], out=out)
    y[plan.target] += z[plan.where]  # y is written only after every read of x
    if counter is not None:
        counter["madds"] = counter.get("madds", 0) + len(B.val)
    return y


spmv_1dvbr = spmv_vbr
